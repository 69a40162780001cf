package exec

import (
	"cmp"
	"hash/maphash"
	"slices"
	"sync"

	"crowddb/internal/engine/plan"
	"crowddb/internal/storage"
)

// hashJoinIter is an inner equi-join: Open drains the right (build) input
// into a hash table keyed on the join columns; Next streams the left
// (probe) input, emitting one combined row per match. Rows with a NULL
// join key never match (NULL = anything is UNKNOWN under three-valued
// logic), so they are dropped on both sides. Residual (non-equi) ON
// conjuncts filter the combined rows.
//
// With no keys, the single hash bucket degenerates into a cross join,
// filtered by the residual.
//
// Each phase has one body at every dop. The build runs over the right
// input's morsels (see inputSource): workers insert sequence-stamped
// entries into a sharded table, and when more than one worker filled it
// the buckets are re-sorted by sequence after the barrier, so probe
// output matches a one-worker build exactly. The probe is a probeIter
// streaming the serial left child, or the ordered gather exchange over
// probeIters on the left chain's morsels when the Parallelize pass
// marked that side.
type hashJoinIter struct {
	node        *plan.HashJoin
	left, right Iterator // serial children; nil when that side is a morsel chain

	table *joinTable
	probe Iterator // probeIter over left, or gather over the left chain
}

// joinTable is the shared build table: a fixed shard array so parallel
// build workers contend on a shard mutex, not one global lock. After the
// build barrier it is read-only and probed without locking.
const joinShards = 64

type joinEntry struct {
	seq int64 // build-side row sequence, for deterministic probe output
	row storage.Row
}

type joinShard struct {
	mu sync.Mutex
	m  map[string][]joinEntry // made on the shard's first insert
}

type joinTable struct {
	seed   maphash.Seed // picks a key's shard
	shards [joinShards]joinShard
}

func newJoinTable() *joinTable { return &joinTable{seed: maphash.MakeSeed()} }

func (jt *joinTable) shard(key []byte) *joinShard {
	return &jt.shards[maphash.Bytes(jt.seed, key)%joinShards]
}

func (jt *joinTable) insert(key []byte, seq int64, row storage.Row) {
	s := jt.shard(key)
	s.mu.Lock()
	if s.m == nil {
		s.m = map[string][]joinEntry{}
	}
	s.m[string(key)] = append(s.m[string(key)], joinEntry{seq: seq, row: row})
	s.mu.Unlock()
}

// lookup is lock-free: only legal after the build barrier.
func (jt *joinTable) lookup(key []byte) []joinEntry {
	return jt.shard(key).m[string(key)]
}

// sortBuckets orders every bucket by build sequence. Parallel workers
// insert in claim-completion order; sorting restores the serial build's
// bucket order, so probing emits byte-identical row sequences at any dop.
func (jt *joinTable) sortBuckets() {
	for i := range jt.shards {
		for _, entries := range jt.shards[i].m {
			if len(entries) > 1 {
				slices.SortFunc(entries, func(a, b joinEntry) int { return cmp.Compare(a.seq, b.seq) })
			}
		}
	}
}

func (j *hashJoinIter) Open() error {
	j.table = newJoinTable()
	if err := j.build(); err != nil {
		return err
	}
	if j.left != nil {
		j.probe = &probeIter{input: j.left, j: j}
	} else {
		j.probe = &gatherIter{dop: j.node.Dop, mkSource: j.probeSource}
	}
	return j.probe.Open()
}

// build fills the hash table from the right input's morsels. Build rows
// are copied: the input beneath reuses its buffer.
func (j *hashJoinIter) build() error {
	src, err := inputSource(j.right, j.node.Right)
	if err != nil {
		return err
	}
	workers, err := runMorsels(src, j.node.Dop, func(int) func(idx int, it Iterator) error {
		b := &buildWorker{j: j, env: rowEnv{layout: j.node.RightLayout}}
		return func(idx int, it Iterator) error {
			seq := int64(idx) * morselRows
			for {
				row, ok, err := it.Next()
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
				if err := b.insert(row, seq); err != nil {
					return err
				}
				seq++
			}
		}
	})
	if err != nil {
		return err
	}
	if workers > 1 {
		j.table.sortBuckets()
	}
	return nil
}

// buildWorker is one build worker's private state: its env, the key and
// value scratch every row reuses, and the arena its kept rows are copied
// into.
type buildWorker struct {
	j       *hashJoinIter
	env     rowEnv
	scratch []byte
	vals    []storage.Value
	arena   arena[storage.Value]
}

// insert evaluates the build keys into the worker's scratch and inserts
// a copy of the row (the input's buffer is recycled). NULL keys are
// dropped.
func (b *buildWorker) insert(row storage.Row, seq int64) error {
	b.env.row = row
	vals := b.vals[:0]
	for _, e := range b.j.node.RightKeys {
		v, err := EvalValue(e, &b.env)
		if err != nil {
			return err
		}
		vals = append(vals, v)
	}
	b.vals = vals
	key, ok := appendJoinKey(b.scratch[:0], vals)
	b.scratch = key
	if !ok {
		return nil
	}
	b.j.table.insert(key, seq, b.arena.add(row))
	return nil
}

func (j *hashJoinIter) Next() (storage.Row, bool, error) { return j.probe.Next() }

// probeSource wraps the left chain's morsels in probe iterators for the
// gather exchange: each morsel probes the shared (now read-only) build
// table with its own envs and scratch. Its combined rows alias the
// probe's buffer, so the gather copies them into its arena.
func (j *hashJoinIter) probeSource() (*morselSource, error) {
	src, err := chainSource(j.node.Left)
	if err != nil {
		return nil, err
	}
	wrapSource(src, func(it Iterator) Iterator { return &probeIter{input: it, j: j} })
	src.owned = false // combined rows alias the probe's buffer
	return src, nil
}

// probeIter streams its left input through the built table, emitting
// one combined row per match. The combined row is built in one buffer
// the iterator reuses — it is valid until the next call, like a scan's
// row (consumers that keep rows clone them) — and with per-iterator envs
// and key scratch the probe allocates nothing per row.
type probeIter struct {
	input Iterator
	j     *hashJoinIter

	leftEnv rowEnv
	outEnv  rowEnv
	scratch []byte
	valBuf  []storage.Value
	out     storage.Row

	leftRow storage.Row
	matches []joinEntry
	mi      int
}

func (p *probeIter) Open() error {
	p.leftEnv.layout = p.j.node.LeftLayout
	p.outEnv.layout = p.j.node.Layout
	p.leftRow, p.matches, p.mi = nil, nil, 0
	return p.input.Open()
}

func (p *probeIter) Next() (storage.Row, bool, error) {
	node := p.j.node
	for {
		for p.mi < len(p.matches) {
			right := p.matches[p.mi].row
			p.mi++
			combined := append(append(p.out[:0], p.leftRow...), right...)
			p.out = combined
			if node.Residual != nil {
				p.outEnv.row = combined
				t, err := EvalPredicate(node.Residual, &p.outEnv)
				if err != nil {
					return nil, false, err
				}
				if t != TriTrue {
					continue
				}
			}
			return combined, true, nil
		}

		row, ok, err := p.input.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		p.leftEnv.row = row
		vals := p.valBuf[:0]
		for _, e := range node.LeftKeys {
			v, err := EvalValue(e, &p.leftEnv)
			if err != nil {
				return nil, false, err
			}
			vals = append(vals, v)
		}
		p.valBuf = vals
		key, keyOK := appendJoinKey(p.scratch[:0], vals)
		p.scratch = key
		if !keyOK {
			continue
		}
		// No clone: each emitted row copies the left values, and the
		// buffer beneath is only recycled on the next left pull.
		p.matches, p.mi, p.leftRow = p.j.table.lookup(key), 0, row
	}
}

func (p *probeIter) Close() error { return p.input.Close() }

// Close closes the probe side, which owns the left child or the gather
// over the left chain. The build's runMorsels already closed the right
// input.
func (j *hashJoinIter) Close() error {
	j.table = nil
	if j.probe == nil {
		return nil
	}
	return j.probe.Close()
}

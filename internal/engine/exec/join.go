package exec

import (
	"sort"
	"strconv"
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

// appendJoinKey appends an encoding of the key values to dst, with the
// same equality semantics as the `=` operator: numeric values compare
// across int/float, so both hash through their float form. Text is
// length-prefixed so values containing separator bytes cannot forge a
// multi-key collision (a key list is equal iff every component is).
// ok=false when any value is NULL. The appended dst is returned so
// callers can keep one scratch buffer per iterator instead of allocating
// per row.
func appendJoinKey(dst []byte, vals []storage.Value) ([]byte, bool) {
	for _, v := range vals {
		switch v.Kind() {
		case storage.KindNull:
			return dst, false
		case storage.KindBool:
			b, _ := v.AsBool()
			if b {
				dst = append(dst, 'b', '1')
			} else {
				dst = append(dst, 'b', '0')
			}
		case storage.KindInt, storage.KindFloat:
			f, _ := v.AsFloat()
			dst = append(dst, 'n')
			dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
		case storage.KindText:
			t, _ := v.AsText()
			dst = append(dst, 't')
			dst = strconv.AppendInt(dst, int64(len(t)), 10)
			dst = append(dst, ':')
			dst = append(dst, t...)
		}
		dst = append(dst, 0x1f)
	}
	return dst, true
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
	m  map[string][]joinEntry
}

type joinTable struct{ shards [joinShards]joinShard }

func newJoinTable() *joinTable {
	jt := &joinTable{}
	for i := range jt.shards {
		jt.shards[i] = joinShard{m: map[string][]joinEntry{}}
	}
	return jt
}

func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func (jt *joinTable) insert(key []byte, seq int64, row storage.Row) {
	s := &jt.shards[fnv1a(key)%joinShards]
	s.mu.Lock()
	s.m[string(key)] = append(s.m[string(key)], joinEntry{seq: seq, row: row})
	s.mu.Unlock()
}

// lookup is lock-free: only legal after the build barrier.
func (jt *joinTable) lookup(key []byte) []joinEntry {
	return jt.shards[fnv1a(key)%joinShards].m[string(key)]
}

// sortBuckets orders every bucket by build sequence. Parallel workers
// insert in claim-completion order; sorting restores the serial build's
// bucket order, so probing emits byte-identical row sequences at any dop.
func (jt *joinTable) sortBuckets() {
	for i := range jt.shards {
		for _, entries := range jt.shards[i].m {
			sort.Slice(entries, func(a, b int) bool { return entries[a].seq < entries[b].seq })
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
// are cloned: the scan beneath reuses its batch buffer.
func (j *hashJoinIter) build() error {
	src, err := inputSource(j.right, j.node.Right)
	if err != nil {
		return err
	}
	workers, err := runMorsels(src, j.node.Dop, func(int) func(idx int, it Iterator) error {
		env := rowEnv{layout: j.node.RightLayout}
		var scratch []byte
		var vals []storage.Value
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
				if err := j.insertBuildRow(row, seq, &env, &scratch, &vals); err != nil {
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

// insertBuildRow evaluates the build keys into the caller's scratch
// buffers and inserts the cloned row. NULL keys are dropped.
func (j *hashJoinIter) insertBuildRow(row storage.Row, seq int64, env *rowEnv, scratch *[]byte, valBuf *[]storage.Value) error {
	env.row = row
	vals := (*valBuf)[:0]
	for _, e := range j.node.RightKeys {
		v, err := EvalValue(e, env)
		if err != nil {
			return err
		}
		vals = append(vals, v)
	}
	*valBuf = vals
	key, ok := appendJoinKey((*scratch)[:0], vals)
	*scratch = key
	if !ok {
		return nil
	}
	j.table.insert(key, seq, row.Clone())
	return nil
}

func (j *hashJoinIter) Next() (storage.Row, bool, error) { return j.probe.Next() }

// probeSource wraps the left chain's morsels in probe iterators for the
// gather exchange: each morsel probes the shared (now read-only) build
// table with its own envs and scratch, emitting owned combined rows.
func (j *hashJoinIter) probeSource() (*morselSource, error) {
	src, err := chainSource(j.node.Left)
	if err != nil {
		return nil, err
	}
	inner := src.open
	src.open = func(i int) (Iterator, error) {
		it, err := inner(i)
		if err != nil {
			return nil, err
		}
		return &probeIter{input: it, j: j}, nil
	}
	src.owned = true // combined rows are fresh allocations
	return src, nil
}

// probeIter streams its left input through the built table, emitting
// one combined row per match. Per-iterator envs and scratch keep the hot
// path free of per-row allocations beyond the combined row itself.
type probeIter struct {
	input Iterator
	j     *hashJoinIter

	leftEnv rowEnv
	outEnv  rowEnv
	scratch []byte
	valBuf  []storage.Value

	leftRow storage.Row
	matches []joinEntry
	mi      int
}

func (p *probeIter) Open() error {
	p.leftEnv.layout = p.j.node.LeftLayout
	p.outEnv.layout = p.j.node.Layout
	return p.input.Open()
}

func (p *probeIter) Next() (storage.Row, bool, error) {
	node := p.j.node
	for {
		for p.mi < len(p.matches) {
			right := p.matches[p.mi].row
			p.mi++
			combined := make(storage.Row, 0, len(p.leftRow)+len(right))
			combined = append(append(combined, p.leftRow...), right...)
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
		// No clone: each emitted row copies the left values, and the scan
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

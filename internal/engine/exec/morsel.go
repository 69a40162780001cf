package exec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"crowddb/internal/engine/plan"
	"crowddb/internal/storage"
)

// Morsel-driven parallelism (see DESIGN.md §14). A plan chain the
// Parallelize pass marked — Filter*/Project* over a Scan or IndexRange —
// is split into fixed-size morsels: disjoint row-index ranges for scans,
// disjoint chunks of the resolved row-ID list for index probes. Each
// worker claims whole morsels and runs a private iterator stack over its
// morsel, so the only shared state below the exchange is the pinned
// snapshot, which cursors read without locks. Every operator has one
// body: an input the pass left serial is a single morsel on one worker.

// morselRows is the number of table rows per morsel: big enough that
// per-morsel setup (cursor allocation, goroutine handoff) is noise,
// small enough that a filtered scan load-balances across workers.
const morselRows = 4096

// morselSource describes a partitioned input: count morsels, each opened
// as an independent iterator (a serial input is one morsel). owned
// reports that emitted rows are fresh allocations (a Project top) rather
// than aliases of a cursor batch buffer, letting the exchange skip its
// copy. release drops the shared snapshot pin every morsel reads
// through; runMorsels or the gather calls it once, after all workers
// have stopped.
type morselSource struct {
	count   int
	owned   bool
	open    func(i int) (Iterator, error)
	release func()
}

// Release drops the source's snapshot pin, if any. Idempotence is the
// release closure's job (sync.Once).
func (s *morselSource) Release() {
	if s != nil && s.release != nil {
		s.release()
	}
}

// parallelChain reports whether the Parallelize pass marked this subtree
// as a morsel chain (its partitionable leaf carries Dop > 1).
func parallelChain(n plan.Node) bool {
	switch leaf := plan.ChainLeaf(n).(type) {
	case *plan.Scan:
		return leaf.Dop > 1
	case *plan.IndexRange:
		return leaf.Dop > 1
	default:
		return false
	}
}

// inputSource is the morsel source a barrier operator (aggregate fold,
// hash-join build) consumes: the chain's morsels when its child was left
// unbuilt because the Parallelize pass marked n as a chain (in == nil),
// otherwise the built child iterator as a single morsel — so a serial
// run is the parallel code on one worker.
func inputSource(in Iterator, n plan.Node) (*morselSource, error) {
	if in == nil {
		return chainSource(n)
	}
	return &morselSource{count: 1, open: func(int) (Iterator, error) { return in, nil }}, nil
}

// chainSource lowers a morsel chain into its source, snapshotting the
// partition (row count / resolved IDs) at call time.
func chainSource(n plan.Node) (*morselSource, error) {
	switch t := n.(type) {
	case *plan.Filter:
		src, err := chainSource(t.Input)
		if err != nil {
			return nil, err
		}
		inner := src.open
		src.open = func(i int) (Iterator, error) {
			it, err := inner(i)
			if err != nil {
				return nil, err
			}
			return &filterIter{input: it, node: t}, nil
		}
		return src, nil
	case *plan.Project:
		src, err := chainSource(t.Input)
		if err != nil {
			return nil, err
		}
		inner := src.open
		src.open = func(i int) (Iterator, error) {
			it, err := inner(i)
			if err != nil {
				return nil, err
			}
			return &projectIter{input: it, node: t}, nil
		}
		src.owned = true
		return src, nil
	case *plan.Scan:
		// One snapshot pin shared by every morsel: all workers read the
		// same immutable version, so dop=N output is row-identical to a
		// serial run regardless of concurrent writers.
		snap := t.Table.Pin()
		rows := snap.NumRows()
		var once sync.Once
		return &morselSource{
			count:   (rows + morselRows - 1) / morselRows,
			release: func() { once.Do(snap.Release) },
			open: func(i int) (Iterator, error) {
				lo := i * morselRows
				hi := min(lo+morselRows, rows)
				return &scanIter{node: t, snap: snap, lo: lo, hi: hi}, nil
			},
		}, nil
	case *plan.IndexRange:
		snap, ids, err := t.Table.PinIndexProbe(t.Index, rangeProbeOf(t))
		if err != nil {
			return nil, err
		}
		var once sync.Once
		return &morselSource{
			count:   (len(ids) + morselRows - 1) / morselRows,
			release: func() { once.Do(snap.Release) },
			open: func(i int) (Iterator, error) {
				lo := i * morselRows
				hi := min(lo+morselRows, len(ids))
				return &indexIter{residual: t.Residual, layout: t.Layout, snap: snap, ids: ids[lo:hi]}, nil
			},
		}, nil
	default:
		return nil, fmt.Errorf("engine: internal: %T is not a morsel chain", n)
	}
}

// rowArena copies rows that alias cursor batch buffers into chunked
// backing arrays: one allocation per ~8K values instead of one per row,
// and headers stay valid because a chunk is never grown past its
// capacity.
const arenaChunkVals = 8192

type rowArena struct{ chunk []storage.Value }

func (a *rowArena) add(row storage.Row) storage.Row {
	n := len(row)
	if cap(a.chunk)-len(a.chunk) < n {
		size := arenaChunkVals
		if n > size {
			size = n
		}
		a.chunk = make([]storage.Value, 0, size)
	}
	start := len(a.chunk)
	a.chunk = append(a.chunk, row...)
	return a.chunk[start : start+n : start+n]
}

// runMorsels drives a barrier-style phase (hash-join build, aggregate
// fold): up to dop workers claim morsels off an atomic counter, open each
// morsel's iterator, hand it to the worker's per-morsel function, and
// close it. Worker 0 runs on the calling goroutine, so a one-morsel
// source (a serial input) spawns nothing. The first error cancels
// remaining claims; runMorsels returns after every worker has stopped,
// reporting how many ran.
func runMorsels(src *morselSource, dop int, mkWorker func(w int) func(idx int, it Iterator) error) (int, error) {
	defer src.Release()
	if src.count == 0 {
		return 0, nil
	}
	workers := max(1, min(dop, src.count))
	var next atomic.Int64
	var failed atomic.Bool
	errs := make([]error, workers)
	work := func(w int) {
		fn := mkWorker(w)
		for !failed.Load() {
			idx := int(next.Add(1) - 1)
			if idx >= src.count {
				return
			}
			it, err := src.open(idx)
			if err == nil {
				if err = it.Open(); err == nil {
					err = fn(idx, it)
				}
				if cerr := it.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				errs[w] = err
				failed.Store(true)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	work(0)
	wg.Wait()
	return workers, errors.Join(errs...)
}

// gatherIter is the ordered exchange operator: dop workers each drain
// whole morsels into per-morsel result buffers, and the consumer emits
// those buffers strictly in morsel order — so the output row sequence is
// identical to a serial run of the same chain, errors included (a
// morsel's error surfaces exactly after the rows of every earlier
// morsel). A bounded claim window (2×dop morsels ahead of the consumer)
// backpressures workers so a slow consumer doesn't buffer the whole
// table.
type gatherIter struct {
	mkSource func() (*morselSource, error)
	dop      int

	src  *morselSource
	mu   sync.Mutex
	cond *sync.Cond
	wg   sync.WaitGroup
	stop atomic.Bool

	results   map[int]*morselResult
	nextClaim int
	nextEmit  int
	closed    bool

	cur    *morselResult
	curPos int
	err    error
}

type morselResult struct {
	rows []storage.Row
	err  error
}

func (g *gatherIter) Open() error {
	src, err := g.mkSource()
	if err != nil {
		return err
	}
	g.src = src
	g.results = map[int]*morselResult{}
	g.cond = sync.NewCond(&g.mu)
	g.nextClaim, g.nextEmit, g.cur, g.curPos, g.err = 0, 0, nil, 0, nil
	workers := min(g.dop, src.count)
	for w := 0; w < workers; w++ {
		g.wg.Add(1)
		go g.worker()
	}
	return nil
}

func (g *gatherIter) worker() {
	defer g.wg.Done()
	window := 2 * g.dop
	for {
		g.mu.Lock()
		for !g.closed && g.nextClaim < g.src.count && g.nextClaim >= g.nextEmit+window {
			g.cond.Wait()
		}
		if g.closed || g.nextClaim >= g.src.count {
			g.mu.Unlock()
			return
		}
		idx := g.nextClaim
		g.nextClaim++
		g.mu.Unlock()

		res := g.runMorsel(idx)
		g.mu.Lock()
		g.results[idx] = res
		g.cond.Broadcast()
		g.mu.Unlock()
	}
}

// runMorsel drains one morsel into an owned buffer. Rows that alias the
// cursor's batch buffer are copied through a chunked arena; rows a
// Project already owns pass straight through.
func (g *gatherIter) runMorsel(idx int) *morselResult {
	res := &morselResult{}
	it, err := g.src.open(idx)
	if err != nil {
		res.err = err
		return res
	}
	if err := it.Open(); err != nil {
		_ = it.Close()
		res.err = err
		return res
	}
	var arena rowArena
	for !g.stop.Load() {
		row, ok, err := it.Next()
		if err != nil {
			res.err = err
			break
		}
		if !ok {
			break
		}
		if g.src.owned {
			res.rows = append(res.rows, row)
		} else {
			res.rows = append(res.rows, arena.add(row))
		}
	}
	if err := it.Close(); err != nil && res.err == nil {
		res.err = err
	}
	return res
}

func (g *gatherIter) Next() (storage.Row, bool, error) {
	for {
		if g.err != nil {
			return nil, false, g.err
		}
		if g.cur != nil {
			if g.curPos < len(g.cur.rows) {
				row := g.cur.rows[g.curPos]
				g.curPos++
				return row, true, nil
			}
			g.cur = nil
			g.mu.Lock()
			g.nextEmit++
			g.cond.Broadcast()
			g.mu.Unlock()
		}
		g.mu.Lock()
		if g.nextEmit >= g.src.count {
			g.mu.Unlock()
			return nil, false, nil
		}
		for g.results[g.nextEmit] == nil && !g.closed {
			g.cond.Wait()
		}
		if g.closed {
			g.mu.Unlock()
			return nil, false, nil
		}
		res := g.results[g.nextEmit]
		delete(g.results, g.nextEmit)
		g.mu.Unlock()
		if res.err != nil {
			g.err = res.err
			return nil, false, res.err
		}
		g.cur, g.curPos = res, 0
	}
}

// Close cancels in-flight morsels and waits for every worker to exit, so
// no goroutine outlives the query.
func (g *gatherIter) Close() error {
	if g.cond == nil {
		return nil // Open never ran (or failed before spawning workers)
	}
	g.stop.Store(true)
	g.mu.Lock()
	g.closed = true
	g.cond.Broadcast()
	g.mu.Unlock()
	g.wg.Wait()
	g.src.Release() // after every worker has stopped reading the snapshot
	return nil
}

// gatherOf builds the executor for a plan.Gather node.
func gatherOf(t *plan.Gather) *gatherIter {
	return &gatherIter{
		dop:      t.Dop,
		mkSource: func() (*morselSource, error) { return chainSource(t.Input) },
	}
}

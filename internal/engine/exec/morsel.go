package exec

import (
	"errors"
	"fmt"
	"slices"
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
// per-morsel setup (claiming, reopening the worker's stack) is noise,
// small enough that a filtered scan load-balances across workers.
const morselRows = 4096

// morselSource describes a partitioned input: count morsels, read by
// workers that each build one iterator stack over the input (stack) and
// re-aim its leaf at every morsel they claim (a serial input is one
// morsel). owned reports that emitted rows are fresh allocations (a
// Project top) rather than aliases of a cursor batch buffer, letting the
// exchange skip its copy. release drops the shared snapshot pin every
// morsel reads through; runMorsels or the gather calls it once, after
// all workers have stopped.
type morselSource struct {
	count   int
	owned   bool
	stack   func() (top Iterator, aim func(i int))
	release func()
}

// open returns the worker's iterator stack aimed at morsel i, building
// the stack on the worker's first morsel.
func (s *morselSource) open(i int, ws *morselScratch) Iterator {
	if ws.top == nil {
		ws.top, ws.aim = s.stack()
	}
	ws.aim(i)
	return ws.top
}

// morselScratch is one worker's state reused across the morsels it
// claims. Its iterator stack over the chain — leaf scan or index probe,
// Filter/Project above it, a join's probe on top — is built once and
// reopened per morsel: the leaf re-aims its cursor (storage
// Cursor.Reset), and every operator keeps its env's resolved references
// and its scratch buffers, so a worker allocates one batch buffer per
// query, not one per morsel. This is safe because a worker finishes with
// a morsel's rows before it opens the next: barrier folds copy what they
// keep, and the gather copies borrowed rows into the worker's arena,
// whose partly filled chunk carries over to the next morsel.
type morselScratch struct {
	top   Iterator
	aim   func(i int)
	arena arena[storage.Value]
	rows  []storage.Row // the gather's row headers, copied out exact-size per morsel
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
// TopN fold, hash-join build) consumes: the chain's morsels when its
// child was left unbuilt because the Parallelize pass marked n as a
// chain (in == nil), otherwise the built child iterator as a single
// morsel — so a serial run is the parallel code on one worker.
func inputSource(in Iterator, n plan.Node) (*morselSource, error) {
	if in == nil {
		return chainSource(n)
	}
	return &morselSource{count: 1, stack: func() (Iterator, func(int)) { return in, func(int) {} }}, nil
}

// wrapSource stacks one operator over every worker's stack of src.
func wrapSource(src *morselSource, wrap func(Iterator) Iterator) {
	inner := src.stack
	src.stack = func() (Iterator, func(int)) {
		it, aim := inner()
		return wrap(it), aim
	}
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
		wrapSource(src, func(it Iterator) Iterator { return &filterIter{input: it, node: t} })
		return src, nil
	case *plan.Project:
		src, err := chainSource(t.Input)
		if err != nil {
			return nil, err
		}
		wrapSource(src, func(it Iterator) Iterator { return &projectIter{input: it, node: t} })
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
			stack: func() (Iterator, func(int)) {
				s := &scanIter{node: t, snap: snap}
				return s, func(i int) { s.lo, s.hi = i*morselRows, min((i+1)*morselRows, rows) }
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
			stack: func() (Iterator, func(int)) {
				s := &indexIter{residual: t.Residual, layout: t.Layout, snap: snap}
				return s, func(i int) { s.ids = ids[i*morselRows : min((i+1)*morselRows, len(ids))] }
			},
		}, nil
	default:
		return nil, fmt.Errorf("engine: internal: %T is not a morsel chain", n)
	}
}

// arena hands out slices carved from chunked backing arrays: one
// allocation per chunk instead of one per slice, and handed-out slices
// stay valid because a chunk is never grown past its capacity. Chunks
// double from arenaMinChunk to arenaMaxChunk elements, so a fold that
// keeps a few rows allocates little.
const (
	arenaMinChunk = 256
	arenaMaxChunk = 8192
)

type arena[T any] struct {
	chunk []T
	size  int // capacity of the next chunk
}

// take returns n zeroed elements.
func (a *arena[T]) take(n int) []T {
	if cap(a.chunk)-len(a.chunk) < n {
		a.size = min(max(2*a.size, arenaMinChunk), arenaMaxChunk)
		a.chunk = make([]T, 0, max(n, a.size))
	}
	start := len(a.chunk)
	a.chunk = a.chunk[:start+n]
	return a.chunk[start : start+n : start+n]
}

// add returns an arena copy of src.
func (a *arena[T]) add(src []T) []T {
	dst := a.take(len(src))
	copy(dst, src)
	return dst
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
		var ws morselScratch
		for !failed.Load() {
			idx := int(next.Add(1) - 1)
			if idx >= src.count {
				return
			}
			it := src.open(idx, &ws)
			err := it.Open()
			if err == nil {
				err = fn(idx, it)
			}
			if cerr := it.Close(); err == nil {
				err = cerr
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
	var ws morselScratch
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

		res := g.runMorsel(idx, &ws)
		g.mu.Lock()
		g.results[idx] = res
		g.cond.Broadcast()
		g.mu.Unlock()
	}
}

// runMorsel drains one morsel into an owned buffer. Rows that alias an
// iterator's buffer are copied through the worker's chunked arena; rows
// a Project already owns pass straight through.
func (g *gatherIter) runMorsel(idx int, ws *morselScratch) *morselResult {
	res := &morselResult{}
	it := g.src.open(idx, ws)
	if err := it.Open(); err != nil {
		_ = it.Close()
		res.err = err
		return res
	}
	rows := ws.rows[:0]
	if rows == nil {
		rows = make([]storage.Row, 0, morselRows)
	}
	for !g.stop.Load() {
		row, ok, err := it.Next()
		if err != nil {
			res.err = err
			break
		}
		if !ok {
			break
		}
		if !g.src.owned {
			row = ws.arena.add(row)
		}
		rows = append(rows, row)
	}
	ws.rows = rows
	res.rows = slices.Clone(rows)
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

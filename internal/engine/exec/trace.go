package exec

import (
	"fmt"
	"sync"
	"time"

	"crowddb/internal/engine/plan"
	"crowddb/internal/storage"
)

// OpStats is the per-operator actuals a traced execution records: rows
// emitted by the operator and inclusive wall time spent inside it
// (Open + every Next + Close, children included — the PostgreSQL
// EXPLAIN ANALYZE convention).
type OpStats struct {
	Rows int64
	Wall time.Duration
}

// Trace collects OpStats for the plan nodes that materialize as
// iterators during one execution. Nodes inside a morsel-parallel chain
// (under a Gather, or the parallel input of a HashJoin, Aggregate or
// TopN) never build an iterator — the parent operator folds their
// morsels directly — so they carry no stats; Annotate marks them as
// such. The root operator
// always has an iterator, so root row counts are exact at any dop.
//
// The map is built single-threaded during build() and only read after
// Drain completes, but Gather closes worker-side iterators concurrently,
// so stat updates go through the per-OpStats pointer (one writer per
// iterator) and the map itself is guarded for the build phase only.
type Trace struct {
	mu  sync.Mutex
	ops map[plan.Node]*OpStats
}

// NewTrace returns an empty trace to pass to BuildTraced.
func NewTrace() *Trace {
	return &Trace{ops: map[plan.Node]*OpStats{}}
}

// Stats returns the recorded actuals for n, or nil if n never built an
// iterator (morsel-chain interior node).
func (t *Trace) Stats(n plan.Node) *OpStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ops[n]
}

// wrap registers n and returns it wrapped in a measuring iterator.
func (t *Trace) wrap(n plan.Node, it Iterator) Iterator {
	st := &OpStats{}
	t.mu.Lock()
	t.ops[n] = st
	t.mu.Unlock()
	return &tracedIter{inner: it, st: st}
}

// Annotate is the plan.ExplainWith hook rendering one node's actuals,
// e.g. " (actual rows=42 time=1.3ms)". Nodes executed inside a morsel
// chain report no per-operator actuals.
func (t *Trace) Annotate(n plan.Node) string {
	st := t.Stats(n)
	if st == nil {
		return " (in parallel chain)"
	}
	return fmt.Sprintf(" (actual rows=%d time=%s)", st.Rows, st.Wall.Round(time.Microsecond))
}

// tracedIter measures one operator: wall time across Open/Next/Close and
// rows handed upward. Row ownership passes through untouched.
type tracedIter struct {
	inner Iterator
	st    *OpStats
}

func (t *tracedIter) Open() error {
	start := time.Now()
	err := t.inner.Open()
	t.st.Wall += time.Since(start)
	return err
}

func (t *tracedIter) Next() (storage.Row, bool, error) {
	start := time.Now()
	row, ok, err := t.inner.Next()
	t.st.Wall += time.Since(start)
	if ok {
		t.st.Rows++
	}
	return row, ok, err
}

func (t *tracedIter) Close() error {
	start := time.Now()
	err := t.inner.Close()
	t.st.Wall += time.Since(start)
	return err
}

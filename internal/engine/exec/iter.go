package exec

import (
	"fmt"
	"strings"

	"crowddb/internal/engine/plan"
	"crowddb/internal/storage"
)

// Iterator is the volcano row-pull contract every operator implements.
//
// Open prepares the operator (blocking operators consume their whole
// input here); Next returns the next row, reporting ok=false at end of
// stream; Close releases resources. Rows returned by Next may alias
// internal buffers and are valid only until the following Next call —
// callers that retain rows must Clone them. Operators that construct
// fresh rows (Project, Aggregate, Sort, TopN) hand over ownership; a
// HashJoin reuses one combined-row buffer per probe iterator.
type Iterator interface {
	Open() error
	Next() (storage.Row, bool, error)
	Close() error
}

// Build lowers a plan node into its iterator tree.
func Build(n plan.Node) (Iterator, error) { return build(n, nil) }

// BuildTraced lowers a plan node like Build, additionally wrapping every
// materialized iterator so tr records per-operator rows-out and wall
// time. Nodes inside morsel-parallel chains build no iterator and record
// no stats (see Trace). With tr == nil it is exactly Build — the
// tracing-off path adds zero work.
func BuildTraced(n plan.Node, tr *Trace) (Iterator, error) { return build(n, tr) }

func build(n plan.Node, tr *Trace) (Iterator, error) {
	it, err := buildRaw(n, tr)
	if err != nil || tr == nil {
		return it, err
	}
	return tr.wrap(n, it), nil
}

func buildRaw(n plan.Node, tr *Trace) (Iterator, error) {
	switch t := n.(type) {
	case *plan.Scan:
		return &scanIter{node: t}, nil
	case *plan.IndexScan:
		return newIndexScanIter(t), nil
	case *plan.IndexRange:
		return newIndexRangeIter(t), nil
	case *plan.IndexOnlyScan:
		return &indexOnlyIter{node: t}, nil
	case *plan.Filter:
		in, err := build(t.Input, tr)
		if err != nil {
			return nil, err
		}
		return &filterIter{input: in, node: t}, nil
	case *plan.Gather:
		return gatherOf(t), nil
	case *plan.HashJoin:
		left, err := barrierInput(t.Left, t.Dop, tr)
		if err != nil {
			return nil, err
		}
		right, err := barrierInput(t.Right, t.Dop, tr)
		if err != nil {
			return nil, err
		}
		return &hashJoinIter{node: t, left: left, right: right}, nil
	case *plan.Project:
		in, err := build(t.Input, tr)
		if err != nil {
			return nil, err
		}
		return &projectIter{input: in, node: t}, nil
	case *plan.Aggregate:
		in, err := barrierInput(t.Input, t.Dop, tr)
		if err != nil {
			return nil, err
		}
		return &aggIter{input: in, node: t}, nil
	case *plan.Sort:
		in, err := build(t.Input, tr)
		if err != nil {
			return nil, err
		}
		return &sortIter{input: in, keys: t.Keys, env: keyEnv(t.Layout, t.ByOutput)}, nil
	case *plan.TopN:
		in, err := barrierInput(t.Input, t.Dop, tr)
		if err != nil {
			return nil, err
		}
		return &topNIter{input: in, node: t}, nil
	case *plan.Distinct:
		in, err := build(t.Input, tr)
		if err != nil {
			return nil, err
		}
		return &distinctIter{input: in}, nil
	case *plan.Limit:
		in, err := build(t.Input, tr)
		if err != nil {
			return nil, err
		}
		return &limitIter{input: in, n: t.N}, nil
	default:
		return nil, fmt.Errorf("engine: unsupported plan node %T", n)
	}
}

// barrierInput builds the child of a barrier operator — aggregate fold,
// TopN fold, either side of a hash join — or returns nil when the
// Parallelize pass marked it as a morsel chain (dop > 1), which the
// operator then runs over the chain's morsels itself (see inputSource).
func barrierInput(n plan.Node, dop int, tr *Trace) (Iterator, error) {
	if dop > 1 && parallelChain(n) {
		return nil, nil
	}
	return build(n, tr)
}

// rowEnv resolves references against a base (layout-shaped) row. The row
// field is repointed per row, so one env serves a whole scan. The layout
// is fixed for the env's lifetime, so each distinct reference is resolved
// against it once and its row index memoized: later rows pay a scan of
// the few memoized (table, name) pairs — whose strings share the
// expression tree's backing bytes — instead of Layout.Resolve's
// lower-casing and map lookups. A reference that fails to resolve is not
// memoized, so it fails with the same error on every row.
type rowEnv struct {
	layout *plan.Layout
	row    storage.Row
	refs   []resolvedRef
}

type resolvedRef struct {
	table, name string
	idx         int
}

func (e *rowEnv) Lookup(table, name string) (storage.Value, error) {
	for i := range e.refs {
		if r := &e.refs[i]; r.name == name && r.table == table {
			return e.row[r.idx], nil
		}
	}
	idx, err := e.layout.Resolve(table, name)
	if err != nil {
		return storage.Null(), err
	}
	e.refs = append(e.refs, resolvedRef{table: table, name: name, idx: idx})
	return e.row[idx], nil
}

// outputEnv resolves references against named output columns (a grouped
// query's result shape), for HAVING and grouped ORDER BY.
type outputEnv struct {
	names map[string]int
	row   storage.Row
}

// newOutputEnv indexes names; on duplicates the first occurrence wins.
func newOutputEnv(names []string) *outputEnv {
	idx := map[string]int{}
	for i, n := range names {
		lower := strings.ToLower(n)
		if _, dup := idx[lower]; !dup {
			idx[lower] = i
		}
	}
	return &outputEnv{names: idx}
}

func (e *outputEnv) Lookup(table, name string) (storage.Value, error) {
	if table == "" {
		if i, ok := e.names[strings.ToLower(name)]; ok {
			return e.row[i], nil
		}
	}
	return storage.Null(), fmt.Errorf("engine: HAVING/ORDER BY column %q is not in the grouped output", name)
}

// bindEnv is the repointable env shared by sort/topN key evaluation: one
// of layout or byOutput is set, matching the plan node.
type bindEnv interface {
	Env
	bind(row storage.Row)
}

func (e *rowEnv) bind(row storage.Row)    { e.row = row }
func (e *outputEnv) bind(row storage.Row) { e.row = row }

func keyEnv(layout *plan.Layout, byOutput []string) bindEnv {
	if layout != nil {
		return &rowEnv{layout: layout}
	}
	return newOutputEnv(byOutput)
}

// Drain runs an iterator to completion, returning all rows. It does NOT
// clone: the caller must ensure the tree's root owns the rows it emits
// (every root the planner produces — Project, Aggregate, or an operator
// above them — does; a hand-built tree rooted at Scan or Filter would
// return rows aliasing the reused batch buffer).
func Drain(it Iterator) ([]storage.Row, error) {
	if err := it.Open(); err != nil {
		_ = it.Close()
		return nil, err
	}
	defer it.Close()
	var out []storage.Row
	for {
		row, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, row)
	}
}

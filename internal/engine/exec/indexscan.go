package exec

import (
	"crowddb/internal/engine/plan"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// indexIter streams the rows an index probe selects, through the storage
// layer's batched index cursor: matching row IDs come from the index
// under the table's read lock, and only those rows are copied out, batch
// by batch — the scan primitive for IndexScan (point probe) and
// IndexRange (bound probe) plan nodes. The residual predicate runs inside
// the refill like a pushed-down scan filter, so rows it rejects are never
// copied at all. Rows returned by Next alias the cursor's batch buffer.
// As a morsel it reads pre-resolved ids against the source's borrowed
// snapshot; otherwise Open resolves the probe and pins its own.
type indexIter struct {
	table    *storage.Table
	index    string
	probe    storage.IndexProbe
	residual sqlparse.Expr
	layout   *plan.Layout

	snap *storage.Snap // borrowed morsel snapshot; nil resolves at Open
	ids  []int

	cur *storage.IndexCursor
	env rowEnv
}

// pointProbeOf lowers an IndexScan node's equality key — composite when
// the planner matched several conjuncts — into a storage probe. Shared by
// the point-probe iterator and the index-only path.
func pointProbeOf(n *plan.IndexScan) storage.IndexProbe {
	if len(n.Keys) > 0 {
		key := make([]storage.Value, len(n.Keys))
		for i, l := range n.Keys {
			key[i] = plan.LitValue(l)
		}
		return storage.IndexProbe{Key: key}
	}
	v := plan.LitValue(n.Key)
	return storage.IndexProbe{Point: &v}
}

// newIndexScanIter builds the iterator for an equality point probe.
func newIndexScanIter(n *plan.IndexScan) *indexIter {
	return &indexIter{
		table: n.Table, index: n.Index,
		probe:    pointProbeOf(n),
		residual: n.Residual, layout: n.Layout,
	}
}

// rangeProbeOf lowers an IndexRange node's bounds into a storage probe —
// shared by the probe iterator, the morsel partitioner and the
// index-only path. Desc becomes a reversed probe: same rows, opposite
// key order.
func rangeProbeOf(n *plan.IndexRange) storage.IndexProbe {
	probe := storage.IndexProbe{LoInc: n.LoInc, HiInc: n.HiInc, Reverse: n.Desc}
	if n.Lo != nil {
		v := plan.LitValue(n.Lo)
		probe.Lo = &v
	}
	if n.Hi != nil {
		v := plan.LitValue(n.Hi)
		probe.Hi = &v
	}
	return probe
}

// newIndexRangeIter builds the iterator for a bound probe.
func newIndexRangeIter(n *plan.IndexRange) *indexIter {
	return &indexIter{
		table: n.Table, index: n.Index,
		probe:    rangeProbeOf(n),
		residual: n.Residual, layout: n.Layout,
	}
}

func (s *indexIter) Open() error {
	if s.snap != nil && s.cur != nil { // a worker's reused morsel probe
		s.cur.Reset(s.ids)
		return nil
	}
	if s.snap != nil {
		s.cur = storage.NewIndexCursorAt(s.snap, s.ids, 0)
	} else {
		cur, err := s.table.NewIndexCursor(s.index, s.probe, 0)
		if err != nil {
			return err
		}
		s.cur = cur
	}
	s.env.layout = s.layout
	if s.residual != nil {
		pred := s.residual
		s.cur.SetFilter(func(row storage.Row) (bool, error) {
			s.env.row = row
			t, err := EvalPredicate(pred, &s.env)
			return t == TriTrue, err
		})
	}
	return nil
}

func (s *indexIter) Next() (storage.Row, bool, error) {
	row, ok := s.cur.Next()
	if !ok {
		return nil, false, s.cur.Err()
	}
	return row, true, nil
}

func (s *indexIter) Close() error {
	if s.cur != nil {
		s.cur.Close()
	}
	return nil
}

// indexOnlyIter serves a covering query straight off the index: the
// executor never touches table data. Point probes emit the probe key
// itself once per matching row ID; range probes emit each entry's key
// tuple in probe order. Emitted rows are shaped like the plan node's
// pseudo-layout (the key columns, in index order) and are owned by the
// iterator's backing arrays — safe to alias until Close.
type indexOnlyIter struct {
	node *plan.IndexOnlyScan

	ids  []int
	keys [][]storage.Value
	key  storage.Row // point form: the one shared key tuple
	pos  int
}

func (s *indexOnlyIter) Open() error {
	probe := indexOnlyProbeOf(s.node)
	ids, keys, err := s.node.Table.IndexOnlyProbe(s.node.Index, probe)
	if err != nil {
		return err
	}
	s.ids, s.keys, s.pos = ids, keys, 0
	if probe.Key != nil {
		s.key = storage.Row(probe.Key)
	} else if probe.Point != nil {
		s.key = storage.Row{*probe.Point}
	}
	return nil
}

func (s *indexOnlyIter) Next() (storage.Row, bool, error) {
	if s.pos >= len(s.ids) {
		return nil, false, nil
	}
	i := s.pos
	s.pos++
	if s.keys == nil {
		return s.key, true, nil
	}
	return storage.Row(s.keys[i]), true, nil
}

func (s *indexOnlyIter) Close() error { return nil }

// indexOnlyProbeOf lowers an IndexOnlyScan node into its storage probe:
// point form when key literals are present, range form otherwise.
func indexOnlyProbeOf(n *plan.IndexOnlyScan) storage.IndexProbe {
	if len(n.Keys) > 0 {
		key := make([]storage.Value, len(n.Keys))
		for i, l := range n.Keys {
			key[i] = plan.LitValue(l)
		}
		return storage.IndexProbe{Key: key}
	}
	probe := storage.IndexProbe{LoInc: n.LoInc, HiInc: n.HiInc, Reverse: n.Desc}
	if n.Lo != nil {
		v := plan.LitValue(n.Lo)
		probe.Lo = &v
	}
	if n.Hi != nil {
		v := plan.LitValue(n.Hi)
		probe.Hi = &v
	}
	return probe
}

package exec

import (
	"sort"

	"crowddb/internal/engine/plan"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// aggState accumulates one aggregate over one group.
type aggState struct {
	count   int
	sum     float64
	min     storage.Value
	max     storage.Value
	any     bool
	numeric bool
}

func (st *aggState) observe(v storage.Value) {
	if v.IsNull() {
		return
	}
	st.count++
	if f, ok := v.AsFloat(); ok {
		st.sum += f
		st.numeric = true
	}
	if !st.any {
		st.min, st.max, st.any = v, v, true
		return
	}
	if c, err := v.Compare(st.min); err == nil && c < 0 {
		st.min = v
	}
	if c, err := v.Compare(st.max); err == nil && c > 0 {
		st.max = v
	}
}

// merge folds another partial state into st — the combine step of
// parallel partial aggregation. Every supported aggregate is
// decomposable: count and sum add, min/max compare, avg derives from
// count+sum at finalize.
func (st *aggState) merge(o *aggState) {
	st.count += o.count
	st.sum += o.sum
	st.numeric = st.numeric || o.numeric
	if !o.any {
		return
	}
	if !st.any {
		st.min, st.max, st.any = o.min, o.max, true
		return
	}
	if c, err := o.min.Compare(st.min); err == nil && c < 0 {
		st.min = o.min
	}
	if c, err := o.max.Compare(st.max); err == nil && c > 0 {
		st.max = o.max
	}
}

func (st *aggState) finalize(agg sqlparse.AggFunc) storage.Value {
	switch agg {
	case sqlparse.AggCount:
		return storage.Int(int64(st.count))
	case sqlparse.AggSum:
		if st.count == 0 || !st.numeric {
			return storage.Null()
		}
		return storage.Float(st.sum)
	case sqlparse.AggAvg:
		if st.count == 0 || !st.numeric {
			return storage.Null()
		}
		return storage.Float(st.sum / float64(st.count))
	case sqlparse.AggMin:
		if !st.any {
			return storage.Null()
		}
		return st.min
	case sqlparse.AggMax:
		if !st.any {
			return storage.Null()
		}
		return st.max
	default:
		return storage.Null()
	}
}

// aggIter implements HashAggregate: Open consumes the whole input,
// hashing rows into groups and folding aggregate states; Next emits one
// output row per group in first-seen order, with HAVING applied against
// the output columns. Scalar (group-key) items evaluate against the
// group's first row. Aggregates without GROUP BY yield exactly one row,
// even for empty input (standard SQL).
//
// The fold runs over the input's morsels (see inputSource): each worker
// keeps a partial group map, and the partials merge — states via
// aggState.merge, group identity (first row, first-seen sequence) from
// the partial with the lowest sequence — so output order and values are
// the same at any dop. A serial input is one morsel, leaving one partial
// and nothing to merge.
type aggIter struct {
	input Iterator // nil when the fold runs over the input chain's morsels
	node  *plan.Aggregate
	env   rowEnv

	out []storage.Row
	pos int
}

type aggGroup struct {
	firstRow storage.Row
	firstSeq int64 // input sequence of the group's first row
	states   []aggState
}

// foldRow hashes one input row into its group and observes every
// aggregate item. seq is the row's global input sequence, used to keep
// group output in first-seen order across parallel partials.
func foldRow(s *plan.Aggregate, env *rowEnv, row storage.Row, seq int64, groups map[string]*aggGroup) error {
	env.row = row
	keyVals := make(storage.Row, len(s.GroupBy))
	for gi, g := range s.GroupBy {
		v, err := EvalValue(g, env)
		if err != nil {
			return err
		}
		keyVals[gi] = v
	}
	key := rowKey(keyVals)
	grp, ok := groups[key]
	if !ok {
		grp = &aggGroup{firstRow: row.Clone(), firstSeq: seq, states: make([]aggState, len(s.Items))}
		groups[key] = grp
	}
	for k, item := range s.Items {
		if item.Agg == sqlparse.AggNone {
			continue
		}
		if item.Expr == nil { // COUNT(*)
			grp.states[k].count++
			continue
		}
		v, err := EvalValue(item.Expr, env)
		if err != nil {
			return err
		}
		grp.states[k].observe(v)
	}
	return nil
}

func (a *aggIter) Open() error {
	a.env.layout = a.node.Layout
	a.out, a.pos = nil, 0
	groups, err := a.fold()
	if err != nil {
		return err
	}
	return a.emit(groups)
}

// fold folds partial group maps per worker over the input's morsels, then
// merges them. Each worker stamps rows with idx*morselRows+local —
// morsel-ordered sequences — so the merged first-seen order equals the
// serial one.
func (a *aggIter) fold() (map[string]*aggGroup, error) {
	src, err := inputSource(a.input, a.node.Input)
	if err != nil {
		return nil, err
	}
	partials := make([]map[string]*aggGroup, max(1, a.node.Dop))
	for w := range partials {
		partials[w] = map[string]*aggGroup{}
	}
	_, err = runMorsels(src, a.node.Dop, func(w int) func(idx int, it Iterator) error {
		groups := partials[w]
		env := &rowEnv{layout: a.node.Layout}
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
				if err := foldRow(a.node, env, row, seq, groups); err != nil {
					return err
				}
				seq++
			}
		}
	})
	if err != nil {
		return nil, err
	}

	merged := partials[0]
	for _, part := range partials[1:] {
		for key, g := range part {
			ex, ok := merged[key]
			if !ok {
				merged[key] = g
				continue
			}
			if g.firstSeq < ex.firstSeq {
				// g saw the group earlier: keep its identity, fold ex in.
				for k := range g.states {
					g.states[k].merge(&ex.states[k])
				}
				merged[key] = g
			} else {
				for k := range ex.states {
					ex.states[k].merge(&g.states[k])
				}
			}
		}
	}
	return merged, nil
}

// emit finalizes every group — in first-seen input order — applying
// HAVING against the named output columns.
func (a *aggIter) emit(groups map[string]*aggGroup) error {
	s := a.node
	order := make([]string, 0, len(groups))
	for key := range groups {
		order = append(order, key)
	}
	sort.Slice(order, func(i, j int) bool {
		return groups[order[i]].firstSeq < groups[order[j]].firstSeq
	})

	if len(s.GroupBy) == 0 && len(order) == 0 {
		key := "∅"
		groups[key] = &aggGroup{states: make([]aggState, len(s.Items))}
		order = append(order, key)
	}

	havingEnv := newOutputEnv(s.Names)
	for _, key := range order {
		grp := groups[key]
		out := make(storage.Row, len(s.Items))
		for k, item := range s.Items {
			if item.Agg != sqlparse.AggNone {
				out[k] = grp.states[k].finalize(item.Agg)
				continue
			}
			if grp.firstRow == nil {
				out[k] = storage.Null()
				continue
			}
			a.env.row = grp.firstRow
			v, err := EvalValue(item.Expr, &a.env)
			if err != nil {
				return err
			}
			out[k] = v
		}
		if s.Having != nil {
			havingEnv.row = out
			t, err := EvalPredicate(s.Having, havingEnv)
			if err != nil {
				return err
			}
			if t != TriTrue {
				continue
			}
		}
		a.out = append(a.out, out)
	}
	return nil
}

func (a *aggIter) Next() (storage.Row, bool, error) {
	if a.pos >= len(a.out) {
		return nil, false, nil
	}
	row := a.out[a.pos]
	a.pos++
	return row, true, nil
}

// Close has no child to close: the fold closed its input (runMorsels
// closes every morsel it opens).
func (a *aggIter) Close() error {
	a.out = nil
	return nil
}

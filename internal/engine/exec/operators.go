package exec

import (
	"crowddb/internal/engine/plan"
	"crowddb/internal/storage"
)

// scanIter streams a table through the storage cursor: values are copied
// into the cursor's reusable batch buffer with zero locks — no per-row
// allocation. The plan's pushed-down filter runs inside the refill, so
// rejected rows are never copied at all. As a morsel it reads the window
// [lo, hi) of the source's borrowed snapshot; otherwise Open pins the
// whole table. A worker reopens one morsel scanIter for every morsel it
// claims (see morselScratch): a reopen re-aims the cursor, keeping its
// buffer, its predicates and the env's resolved references.
type scanIter struct {
	node   *plan.Scan
	snap   *storage.Snap // borrowed morsel snapshot; nil pins at Open
	lo, hi int
	cur    *storage.Cursor
	env    rowEnv
}

func (s *scanIter) Open() error {
	if s.snap != nil && s.cur != nil {
		s.cur.Reset(s.lo, s.hi)
		return nil
	}
	if s.snap != nil {
		s.cur = storage.NewRangeCursorAt(s.snap, s.lo, s.hi, 0)
	} else {
		s.cur = s.node.Table.NewCursor(0)
	}
	s.env.layout = s.node.Layout
	preds, rest := splitVectorizable(s.node.Filter, s.node.Layout)
	if len(preds) > 0 {
		s.cur.SetPreds(preds)
	}
	if rest != nil {
		pred := rest
		s.cur.SetFilter(func(row storage.Row) (bool, error) {
			s.env.row = row
			t, err := EvalPredicate(pred, &s.env)
			return t == TriTrue, err
		})
	}
	return nil
}

func (s *scanIter) Next() (storage.Row, bool, error) {
	row, ok := s.cur.Next()
	if !ok {
		return nil, false, s.cur.Err()
	}
	return row, true, nil
}

func (s *scanIter) Close() error {
	if s.cur != nil {
		s.cur.Close()
	}
	return nil
}

// filterIter drops rows whose predicate is not TRUE.
type filterIter struct {
	input Iterator
	node  *plan.Filter
	env   rowEnv
}

func (f *filterIter) Open() error {
	f.env.layout = f.node.Layout
	return f.input.Open()
}

func (f *filterIter) Next() (storage.Row, bool, error) {
	for {
		row, ok, err := f.input.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		f.env.row = row
		t, err := EvalPredicate(f.node.Pred, &f.env)
		if err != nil {
			return nil, false, err
		}
		if t == TriTrue {
			return row, true, nil
		}
	}
}

func (f *filterIter) Close() error { return f.input.Close() }

// projectIter evaluates the select list into a fresh output row.
type projectIter struct {
	input Iterator
	node  *plan.Project
	env   rowEnv
}

func (p *projectIter) Open() error {
	p.env.layout = p.node.Layout
	return p.input.Open()
}

func (p *projectIter) Next() (storage.Row, bool, error) {
	row, ok, err := p.input.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	p.env.row = row
	out := make(storage.Row, len(p.node.Exprs))
	for i, e := range p.node.Exprs {
		v, err := EvalValue(e, &p.env)
		if err != nil {
			return nil, false, err
		}
		out[i] = v
	}
	return out, true, nil
}

func (p *projectIter) Close() error { return p.input.Close() }

// limitIter passes through at most n rows.
type limitIter struct {
	input Iterator
	n     int64
	seen  int64
}

func (l *limitIter) Open() error {
	l.seen = 0
	return l.input.Open()
}

func (l *limitIter) Next() (storage.Row, bool, error) {
	if l.seen >= l.n {
		return nil, false, nil
	}
	row, ok, err := l.input.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.seen++
	return row, true, nil
}

func (l *limitIter) Close() error { return l.input.Close() }

// distinctIter drops duplicate rows, keyed like GROUP BY groups
// (appendGroupKey). Input rows are projection output (fresh), so they
// can be passed through without cloning.
type distinctIter struct {
	input Iterator
	seen  map[string]bool
	key   []byte
}

func (d *distinctIter) Open() error {
	d.seen = map[string]bool{}
	return d.input.Open()
}

func (d *distinctIter) Next() (storage.Row, bool, error) {
	for {
		row, ok, err := d.input.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		key := d.key[:0]
		for _, v := range row {
			key = appendGroupKey(key, v)
		}
		d.key = key
		if d.seen[string(key)] {
			continue
		}
		d.seen[string(key)] = true
		return row, true, nil
	}
}

func (d *distinctIter) Close() error { return d.input.Close() }

package exec

import (
	"sort"

	"crowddb/internal/engine/plan"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// keyedRow is a retained row with its precomputed sort keys and input
// sequence number (the stability tie-break).
type keyedRow struct {
	row  storage.Row
	keys []storage.Value
	seq  int
}

// compareKeyed orders two rows under the ORDER BY keys: NULLs sort last
// regardless of direction, DESC flips the comparison, ties fall through
// to the next key and finally to input order (stable).
func compareKeyed(a, b *keyedRow, keys []sqlparse.OrderKey) (int, error) {
	for i, key := range keys {
		va, vb := a.keys[i], b.keys[i]
		switch {
		case va.IsNull() && vb.IsNull():
			continue
		case va.IsNull():
			return 1, nil
		case vb.IsNull():
			return -1, nil
		}
		c, err := va.Compare(vb)
		if err != nil {
			return 0, err
		}
		if c == 0 {
			continue
		}
		if key.Desc {
			return -c, nil
		}
		return c, nil
	}
	return a.seq - b.seq, nil
}

// evalKeysInto computes the ORDER BY key values for one row into dst,
// so hot paths (TopN candidate rejection) can reuse one buffer.
func evalKeysInto(keys []sqlparse.OrderKey, env bindEnv, row storage.Row, dst []storage.Value) error {
	env.bind(row)
	for i, key := range keys {
		v, err := EvalValue(key.Expr, env)
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// evalKeys computes the ORDER BY key values for one row.
func evalKeys(keys []sqlparse.OrderKey, env bindEnv, row storage.Row) ([]storage.Value, error) {
	out := make([]storage.Value, len(keys))
	if err := evalKeysInto(keys, env, row, out); err != nil {
		return nil, err
	}
	return out, nil
}

// sortIter fully sorts its input (blocking). Input rows are cloned, since
// upstream operators may reuse their buffers.
type sortIter struct {
	input Iterator
	keys  []sqlparse.OrderKey
	env   bindEnv
	rows  []keyedRow
	pos   int
}

func (s *sortIter) Open() error {
	if err := s.input.Open(); err != nil {
		return err
	}
	s.rows, s.pos = nil, 0
	for seq := 0; ; seq++ {
		row, ok, err := s.input.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		kv, err := evalKeys(s.keys, s.env, row)
		if err != nil {
			return err
		}
		s.rows = append(s.rows, keyedRow{row: row.Clone(), keys: kv, seq: seq})
	}
	var cmpErr error
	sort.Slice(s.rows, func(a, b int) bool {
		c, err := compareKeyed(&s.rows[a], &s.rows[b], s.keys)
		if err != nil && cmpErr == nil {
			cmpErr = err
		}
		return c < 0
	})
	return cmpErr
}

func (s *sortIter) Next() (storage.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	row := s.rows[s.pos].row
	s.pos++
	return row, true, nil
}

func (s *sortIter) Close() error {
	s.rows = nil
	return s.input.Close()
}

// topNIter implements TopN: Open keeps the n best rows under the sort
// keys — ORDER BY + LIMIT without sorting, or even retaining, the full
// input. Like the aggregate it folds the input's morsels (see
// inputSource): each worker keeps a bounded heap of the n best rows it
// saw, stamped with morsel-ordered sequence numbers
// (idx*morselRows+local), and the heaps are merged and cut to n. Every
// row of the global top n is in its worker's top n, and the stamps break
// ties as a serial scan would, so at every dop the result equals a
// stable full sort followed by truncation.
type topNIter struct {
	input Iterator // nil when the fold runs over the input chain's morsels
	node  *plan.TopN
	rows  []keyedRow // merged heaps, sorted ascending for output
	pos   int
}

func (t *topNIter) Open() error {
	t.rows, t.pos = nil, 0
	src, err := inputSource(t.input, t.node.Input)
	if err != nil {
		return err
	}
	heaps := make([]topHeap, max(1, t.node.Dop))
	_, err = runMorsels(src, t.node.Dop, func(w int) func(idx int, it Iterator) error {
		h := &heaps[w]
		h.keys, h.n = t.node.Keys, t.node.N
		env := keyEnv(t.node.Layout, t.node.ByOutput)
		// Candidate keys evaluate into one reused buffer: a row the heap
		// rejects — the overwhelmingly common case once the heap is warm
		// — costs zero allocations.
		keyBuf := make([]storage.Value, len(t.node.Keys))
		return func(idx int, it Iterator) error {
			for seq := idx * morselRows; h.n > 0; seq++ {
				row, ok, err := it.Next()
				if err != nil || !ok {
					return err
				}
				if err := evalKeysInto(h.keys, env, row, keyBuf); err != nil {
					return err
				}
				if err := h.offer(row, keyBuf, seq); err != nil {
					return err
				}
			}
			return nil
		}
	})
	if err != nil {
		return err
	}
	for _, h := range heaps {
		t.rows = append(t.rows, h.rows...)
	}
	var cmpErr error
	sort.Slice(t.rows, func(a, b int) bool {
		c, err := compareKeyed(&t.rows[a], &t.rows[b], t.node.Keys)
		if err != nil && cmpErr == nil {
			cmpErr = err
		}
		return c < 0
	})
	if int64(len(t.rows)) > t.node.N {
		t.rows = t.rows[:t.node.N]
	}
	return cmpErr
}

func (t *topNIter) Next() (storage.Row, bool, error) {
	if t.pos >= len(t.rows) {
		return nil, false, nil
	}
	row := t.rows[t.pos].row
	t.pos++
	return row, true, nil
}

// Close has no child to close: the fold closed its input (runMorsels
// closes every morsel it opens).
func (t *topNIter) Close() error {
	t.rows = nil
	return nil
}

// topHeap is one worker's bounded binary max-heap (worst kept row at the
// root) of the n best rows it has seen.
type topHeap struct {
	keys []sqlparse.OrderKey
	n    int64
	rows []keyedRow
}

// offer considers one candidate row with its evaluated keys, copying
// them only when the heap keeps them. While the heap fills, a kept row
// and its keys share one new allocation; once it is full, a better row
// is copied over the evicted worst one, so a warm heap allocates
// nothing.
func (h *topHeap) offer(row storage.Row, keys []storage.Value, seq int) error {
	if int64(len(h.rows)) < h.n {
		buf := append(append(make([]storage.Value, 0, len(row)+len(keys)), row...), keys...)
		h.rows = append(h.rows, keyedRow{row: buf[:len(row):len(row)], keys: buf[len(row):], seq: seq})
		return h.siftUp(len(h.rows) - 1)
	}
	// Replace the worst kept row only when strictly better; an equal row
	// arrived later and loses the stable tie-break.
	c, err := compareKeyed(&keyedRow{keys: keys, seq: seq}, &h.rows[0], h.keys)
	if err != nil || c >= 0 {
		return err
	}
	worst := &h.rows[0]
	copy(worst.row, row)
	copy(worst.keys, keys)
	worst.seq = seq
	return h.siftDown(0)
}

func (h *topHeap) less(a, b int) (bool, error) {
	c, err := compareKeyed(&h.rows[a], &h.rows[b], h.keys)
	return c < 0, err
}

func (h *topHeap) siftUp(i int) error {
	for i > 0 {
		parent := (i - 1) / 2
		// Max-heap: the parent must not be less than the child.
		lt, err := h.less(parent, i)
		if err != nil {
			return err
		}
		if !lt {
			return nil
		}
		h.rows[parent], h.rows[i] = h.rows[i], h.rows[parent]
		i = parent
	}
	return nil
}

func (h *topHeap) siftDown(i int) error {
	for {
		largest := i
		for _, child := range [2]int{2*i + 1, 2*i + 2} {
			if child < len(h.rows) {
				lt, err := h.less(largest, child)
				if err != nil {
					return err
				}
				if lt {
					largest = child
				}
			}
		}
		if largest == i {
			return nil
		}
		h.rows[i], h.rows[largest] = h.rows[largest], h.rows[i]
		i = largest
	}
}

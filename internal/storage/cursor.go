package storage

import "fmt"

// Cursor streams a table snapshot in batches with zero locks on the hot
// path: it pins the table's MVCC snapshot at creation and walks the
// immutable column chunks directly, so long scans never contend with
// writers — not even a bulk crowd FillColumn landing mid-scan. Each
// refill evaluates the vectorized predicates (SetPreds) chunk-at-a-time
// into a selection bitmap, then materializes only the selected rows into
// one reusable batch buffer; the residual filter closure (SetFilter)
// runs per selected row for predicates the planner could not vectorize.
//
// Consistency: the whole scan observes exactly the snapshot pinned at
// creation. Mutations applied after creation — Set, Delete, FillColumn,
// Insert — are invisible; in particular a concurrent Delete can no
// longer skip or duplicate rows (physical IDs are stable and the
// snapshot's tombstone bitmap is frozen).
//
// Decode errors (a torn chunk, possible only through corruption) surface
// through Next→Err with the table name and row position instead of
// silently ending the scan.
//
// The Row returned by Next aliases the cursor's internal buffer and is
// valid only until the following Next or Reset call; callers that retain
// rows (sorts, hash builds) must Clone them. A cursor over a borrowed
// snapshot is reusable: Reset re-aims it at another window and recycles
// the batch buffer, so every row it returned before is dead from then on.
type Cursor struct {
	snap  *Snap
	v     *version
	width int // column count fixed at cursor creation
	owns  bool

	next  int // next physical row to consider
	limit int // exclusive upper physical row

	preds  []Pred
	filter func(Row) (bool, error)

	// Current window state: physical rows [winLo, winLo+winN), selection
	// bitmap sel, and per-column contiguous value slices (nil = all-NULL).
	winLo   int
	winN    int
	winPos  int // next offset within the window
	sel     []uint64
	colWins [][]Value

	buf  []Value // batch backing array, reused across refills
	hdrs []Row   // row headers into buf, reused across refills
	n    int     // rows in the current batch
	pos  int     // consumed rows of the current batch
	err  error
	done bool
}

// DefaultBatchSize is the cursor batch size used when 0 is passed.
const DefaultBatchSize = 256

// NewCursor creates a batched cursor over the table's current snapshot.
// The cursor owns its snapshot pin and releases it when the scan is
// exhausted or Closed.
func (t *Table) NewCursor(batchSize int) *Cursor {
	c := newCursorOn(t.Pin(), 0, -1, batchSize)
	c.owns = true
	return c
}

// NewRangeCursorAt creates a cursor over the physical-row window [lo, hi)
// of an already-pinned snapshot — the partitioning primitive for
// morsel-parallel scans: disjoint windows of the same snapshot can be
// read by concurrent cursors with no coordination at all. hi < 0 means
// "to the end of the snapshot"; tombstoned rows inside the window are
// skipped. The caller keeps ownership of snap — morsel workers share one
// pin across all their window cursors and release it once.
func NewRangeCursorAt(snap *Snap, lo, hi, batchSize int) *Cursor {
	return newCursorOn(snap, lo, hi, batchSize)
}

func newCursorOn(snap *Snap, lo, hi, batchSize int) *Cursor {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	width := snap.v.schema.Len()
	c := &Cursor{
		snap:  snap,
		v:     snap.v,
		width: width,
		buf:   make([]Value, batchSize*width),
		hdrs:  make([]Row, batchSize),
	}
	c.aim(lo, hi)
	return c
}

// aim positions the cursor at the start of the physical-row window
// [lo, hi), clamped to the snapshot (hi < 0 means its end).
func (c *Cursor) aim(lo, hi int) {
	if lo < 0 {
		lo = 0
	}
	if hi < 0 || hi > c.v.nrows {
		hi = c.v.nrows
	}
	c.next, c.limit = lo, hi
	c.winLo, c.winN, c.winPos = 0, 0, 0
	c.n, c.pos, c.err, c.done = 0, 0, nil, false
}

// Reset re-aims a cursor over a borrowed snapshot (NewRangeCursorAt) at
// the window [lo, hi) of the same snapshot, keeping its batch buffers,
// predicates and filter: a morsel worker reads every morsel it claims
// through one cursor instead of allocating a batch buffer per morsel.
// Rows returned before the Reset alias the recycled buffer and must not
// be read afterwards. A cursor that owns its pin (NewCursor) may have
// released it already and cannot be reset.
func (c *Cursor) Reset(lo, hi int) {
	if c.owns {
		panic("storage: Reset on a cursor that owns its snapshot")
	}
	c.aim(lo, hi)
}

// SetFilter installs a residual predicate evaluated per selected row
// during refill, before the row is surfaced. The Row passed to f aliases
// the batch buffer and must not be retained or mutated.
func (c *Cursor) SetFilter(f func(Row) (bool, error)) { c.filter = f }

// SetPreds installs vectorized predicates, ANDed together and with the
// residual filter. They are evaluated per chunk window into a selection
// bitmap — no per-row closure call, no row materialization for
// non-matching rows.
func (c *Cursor) SetPreds(preds []Pred) { c.preds = preds }

// Next returns the next matching row, or ok=false at the end of the scan
// (check Err afterwards). The returned Row is valid until the next call.
func (c *Cursor) Next() (Row, bool) {
	for c.pos >= c.n {
		if c.err != nil || c.done {
			c.Close()
			return nil, false
		}
		c.refill()
	}
	row := c.hdrs[c.pos]
	c.pos++
	return row, true
}

// Err returns the first filter or decode error encountered, if any.
func (c *Cursor) Err() error { return c.err }

// Close releases the cursor's snapshot pin (if it owns one). It is
// called automatically when the scan ends; callers abandoning a cursor
// early should call it themselves. Idempotent.
func (c *Cursor) Close() {
	if c.owns {
		c.snap.Release()
	}
}

// loadWindow positions the window machinery over the next span of
// physical rows: [c.next, min(limit, next chunk boundary)). Reports
// false when the scan range is exhausted.
func (c *Cursor) loadWindow() bool {
	if c.next >= c.limit {
		return false
	}
	v := c.v
	lo := c.next
	hi := lo/ChunkRows*ChunkRows + ChunkRows // next chunk boundary
	if lo >= v.sealed {
		hi = v.nrows // the tail is one window
	}
	if hi > c.limit {
		hi = c.limit
	}
	n := hi - lo
	words := (n + 63) / 64
	if cap(c.sel) < words {
		c.sel = make([]uint64, words)
	}
	c.sel = c.sel[:words]
	fillOnes(c.sel, n)
	// Clear tombstoned rows.
	if v.dead != nil {
		for i := 0; i < n; i++ {
			if v.isDead(lo + i) {
				c.sel[i>>6] &^= 1 << (uint(i) & 63)
			}
		}
	}
	if c.colWins == nil {
		c.colWins = make([][]Value, c.width)
	}
	for col := 0; col < c.width; col++ {
		w, err := v.window(col, lo, hi)
		if err != nil {
			c.err = fmt.Errorf("storage: table %s: %w", c.snap.t.name, err)
			return false
		}
		c.colWins[col] = w
	}
	for _, p := range c.preds {
		c.evalPred(p, n)
	}
	c.winLo, c.winN, c.winPos = lo, n, 0
	c.next = hi
	return true
}

func (c *Cursor) evalPred(p Pred, n int) {
	var vals []Value
	if p.Col < c.width {
		vals = c.colWins[p.Col]
	}
	evalPredWindow(p, vals, n, c.sel)
}

// refill materializes the next batch of selected rows.
func (c *Cursor) refill() {
	batch := len(c.hdrs)
	c.n, c.pos = 0, 0
	for c.n < batch {
		if c.winPos >= c.winN {
			if !c.loadWindow() {
				c.done = true
				return
			}
			continue
		}
		i := c.winPos
		c.winPos++
		if c.sel[i>>6]&(1<<(uint(i)&63)) == 0 {
			continue
		}
		dst := c.buf[c.n*c.width : (c.n+1)*c.width]
		for col := 0; col < c.width; col++ {
			if w := c.colWins[col]; w != nil {
				dst[col] = w[i]
			} else {
				dst[col] = Null()
			}
		}
		if c.filter != nil {
			ok, err := c.filter(dst)
			if err != nil {
				c.err = err
				return
			}
			if !ok {
				continue
			}
		}
		c.hdrs[c.n] = dst
		c.n++
	}
}

package storage

import (
	"fmt"
	"sync"
	"testing"
)

func cursorTable(t *testing.T, n int) *Table {
	t.Helper()
	schema, err := NewSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "name", Kind: KindText},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable("t", schema)
	for i := 0; i < n; i++ {
		if err := tbl.Insert(Int(int64(i)), Text(fmt.Sprintf("row%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestCursorReadsAllRowsAcrossBatches(t *testing.T) {
	tbl := cursorTable(t, 1000)
	c := tbl.NewCursor(64) // forces many refills
	seen := 0
	for {
		row, ok := c.Next()
		if !ok {
			break
		}
		id, _ := row[0].AsInt()
		if id != int64(seen) {
			t.Fatalf("row %d has id %d", seen, id)
		}
		seen++
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != 1000 {
		t.Fatalf("saw %d rows", seen)
	}
}

func TestCursorFilterSkipsCopies(t *testing.T) {
	tbl := cursorTable(t, 100)
	c := tbl.NewCursor(16)
	c.SetFilter(func(r Row) (bool, error) {
		id, _ := r[0].AsInt()
		return id%10 == 0, nil
	})
	var ids []int64
	for {
		row, ok := c.Next()
		if !ok {
			break
		}
		id, _ := row[0].AsInt()
		ids = append(ids, id)
	}
	if len(ids) != 10 || ids[0] != 0 || ids[9] != 90 {
		t.Fatalf("ids = %v", ids)
	}
}

func TestCursorFilterErrorStopsScan(t *testing.T) {
	tbl := cursorTable(t, 10)
	c := tbl.NewCursor(4)
	boom := fmt.Errorf("boom")
	c.SetFilter(func(r Row) (bool, error) {
		id, _ := r[0].AsInt()
		if id == 5 {
			return false, boom
		}
		return true, nil
	})
	n := 0
	for {
		if _, ok := c.Next(); !ok {
			break
		}
		n++
	}
	if c.Err() != boom {
		t.Fatalf("err = %v", c.Err())
	}
	if n != 5 {
		t.Fatalf("rows before error = %d", n)
	}
}

// The cursor's row is valid only until the next call; the batch buffer is
// reused. This test documents the aliasing contract.
func TestCursorRowAliasing(t *testing.T) {
	tbl := cursorTable(t, 3)
	c := tbl.NewCursor(1)
	r1, _ := c.Next()
	id1, _ := r1[0].AsInt()
	if id1 != 0 {
		t.Fatalf("id = %d", id1)
	}
	_, _ = c.Next()
	// r1 now aliases the second batch (batch size 1): its id changed.
	id1b, _ := r1[0].AsInt()
	if id1b != 1 {
		t.Fatalf("buffer not reused? id = %d", id1b)
	}
}

// Width is fixed at creation: a column added mid-scan does not change the
// shape of rows already being streamed.
func TestCursorFixedWidthUnderConcurrentAddColumn(t *testing.T) {
	tbl := cursorTable(t, 500)
	c := tbl.NewCursor(32)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = tbl.AddColumn(Column{Name: "extra", Kind: KindBool})
	}()
	rows := 0
	for {
		row, ok := c.Next()
		if !ok {
			break
		}
		if len(row) != 2 {
			t.Errorf("row width = %d", len(row))
			break
		}
		rows++
	}
	wg.Wait()
	if rows != 500 {
		t.Fatalf("rows = %d", rows)
	}
}

func BenchmarkCursorScan(b *testing.B) {
	schema, _ := NewSchema(Column{Name: "id", Kind: KindInt})
	tbl := NewTable("t", schema)
	for i := 0; i < 100_000; i++ {
		_ = tbl.Insert(Int(int64(i)))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := tbl.NewCursor(0)
		for {
			if _, ok := c.Next(); !ok {
				break
			}
		}
	}
}

// drainIDs reads every remaining row's id.
func drainIDs(t *testing.T, next func() (Row, bool), errf func() error) []int64 {
	t.Helper()
	var ids []int64
	for {
		row, ok := next()
		if !ok {
			break
		}
		id, _ := row[0].AsInt()
		ids = append(ids, id)
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}
	return ids
}

// A reset cursor reads its new window exactly like a fresh cursor with
// the same predicates and filter — whether the old window was abandoned
// mid-batch or read to the end — and never shows the old window's rows.
func TestCursorResetReaimsWindow(t *testing.T) {
	tbl := cursorTable(t, 3*ChunkRows)
	snap := tbl.Pin()
	defer snap.Release()
	setup := func(c *Cursor) {
		c.SetPreds([]Pred{{Col: 0, Op: PredGe, Val: Int(100)}})
		c.SetFilter(func(r Row) (bool, error) {
			id, _ := r[0].AsInt()
			return id%3 != 0, nil
		})
	}
	fresh := func(lo, hi int) []int64 {
		c := NewRangeCursorAt(snap, lo, hi, 64)
		setup(c)
		return drainIDs(t, c.Next, c.Err)
	}

	c := NewRangeCursorAt(snap, 0, ChunkRows+10, 64)
	setup(c)
	for i := 0; i < 70; i++ { // abandon the window inside its second batch
		if _, ok := c.Next(); !ok {
			t.Fatal("window ended early")
		}
	}
	for _, w := range [][2]int{{ChunkRows - 5, 2*ChunkRows + 7}, {50, 300}, {2 * ChunkRows, -1}, {10, 10}} {
		c.Reset(w[0], w[1])
		got, want := drainIDs(t, c.Next, c.Err), fresh(w[0], w[1])
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("window %v after Reset: %d rows, fresh cursor %d", w, len(got), len(want))
		}
	}
}

func TestIndexCursorResetReaimsIDs(t *testing.T) {
	tbl := cursorTable(t, 1000)
	snap := tbl.Pin()
	defer snap.Release()
	c := NewIndexCursorAt(snap, []int{5, 6, 7, 8, 9}, 2)
	if _, ok := c.Next(); !ok {
		t.Fatal("no first row")
	}
	c.Reset([]int{900, 3, 42})
	if got := drainIDs(t, c.Next, c.Err); fmt.Sprint(got) != "[900 3 42]" {
		t.Fatalf("ids after Reset = %v", got)
	}
	c.Reset([]int{1})
	if got := drainIDs(t, c.Next, c.Err); fmt.Sprint(got) != "[1]" {
		t.Fatalf("ids after second Reset = %v", got)
	}
}

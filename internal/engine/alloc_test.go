package engine

import (
	"testing"

	"crowddb/internal/storage"
)

// Allocation gates for the executor's pipeline breakers. They count heap
// objects (testing.AllocsPerRun reads runtime.MemStats.Mallocs), not
// time, so they hold on any machine: the GROUP BY fold, the join probe
// and the TopN fold may allocate per group, per morsel and per kept row,
// but never per input row. The budget covers parsing, planning and the
// result as well.

const (
	allocRows = 50_000
	// maxAllocsPerRow is the per-input-row budget: 500 objects per
	// 50k-row query.
	maxAllocsPerRow = 0.01
)

// allocEngine builds big (allocRows rows: join key k cycling through
// dims' ten keys, grp cycling through 20 groups, score a permutation of
// 0..allocRows-1) and dims (10 rows).
func allocEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(storage.NewCatalog())
	mustExec(t, e, `CREATE TABLE big (id INTEGER, k INTEGER, grp INTEGER, score FLOAT)`)
	mustExec(t, e, `CREATE TABLE dims (k INTEGER, label TEXT)`)
	big, _ := e.Catalog().Get("big")
	for i := 0; i < allocRows; i++ {
		score := float64((i * 7919) % allocRows)
		if err := big.Insert(storage.Int(int64(i)), storage.Int(int64(i%10)),
			storage.Int(int64(i%20)), storage.Float(score)); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, e, `INSERT INTO dims VALUES (0, 'a'), (1, 'b'), (2, 'c'), (3, 'd'), (4, 'e'),
		(5, 'f'), (6, 'g'), (7, 'h'), (8, 'i'), (9, 'j')`)
	return e
}

func TestPipelineBreakersAllocatePerGroupNotPerRow(t *testing.T) {
	e := allocEngine(t)
	defer e.SetExecWorkers(1)
	queries := map[string]struct {
		sql  string
		rows int
	}{
		"group by":   {`SELECT grp, COUNT(*), AVG(score) FROM big GROUP BY grp`, 20},
		"join probe": {`SELECT COUNT(*) FROM big b JOIN dims d ON b.k = d.k`, 1},
		"topn":       {`SELECT id, score FROM big ORDER BY score DESC, id LIMIT 10`, 10},
	}
	for name, q := range queries {
		for _, dop := range []int{1, 8} {
			e.SetExecWorkers(dop)
			mustExec(t, e, q.sql) // warm: first-use growth is not per-query cost
			allocs := testing.AllocsPerRun(5, func() {
				if res := mustExec(t, e, q.sql); len(res.Rows) != q.rows {
					t.Fatalf("%s: rows = %d, want %d", name, len(res.Rows), q.rows)
				}
			})
			t.Logf("%s at dop %d: %.0f allocations per query", name, dop, allocs)
			if perRow := allocs / allocRows; perRow > maxAllocsPerRow {
				t.Errorf("%s at dop %d: %.0f allocations per query = %.4f per input row, budget %.2f",
					name, dop, allocs, perRow, maxAllocsPerRow)
			}
		}
	}
}

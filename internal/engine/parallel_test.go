package engine

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"crowddb/internal/storage"
)

// Parallel-executor coverage: every query here runs once with serial
// plans (exec-workers 1) and once at dop 8, and the two results must be
// identical row for row — the morsel executor's ordering contract. The
// fixtures are sized past plan.MinParallelRows (4096) so the dop-8 runs
// actually take the parallel paths.

const parRows = 5000

// parallelEngine builds wide (parRows rows, every 7th join key NULL),
// dims (10 distinct join keys), and tiny (3 rows, for cross joins).
func parallelEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(storage.NewCatalog())
	mustExec(t, e, `CREATE TABLE wide (id INTEGER, k INTEGER, grp INTEGER, score FLOAT)`)
	mustExec(t, e, `CREATE TABLE dims (k INTEGER, label TEXT)`)
	mustExec(t, e, `CREATE TABLE tiny (bound INTEGER, tag TEXT)`)
	wide, _ := e.Catalog().Get("wide")
	for i := 0; i < parRows; i++ {
		k := storage.Int(int64(i % 10))
		if i%7 == 0 {
			k = storage.Null()
		}
		if err := wide.Insert(storage.Int(int64(i)), k,
			storage.Int(int64(i%4)), storage.Float(float64(i%1000))); err != nil {
			t.Fatal(err)
		}
	}
	dims, _ := e.Catalog().Get("dims")
	for k := 0; k < 10; k++ {
		if err := dims.Insert(storage.Int(int64(k)), storage.Text(fmt.Sprintf("label-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, e, `INSERT INTO tiny VALUES (3, 'lo'), (4700, 'hi'), (NULL, 'null')`)
	return e
}

// bothDops runs sql at exec-workers 1 and 8 and requires identical
// results (columns, rows, and row order).
func bothDops(t *testing.T, e *Engine, sql string) *Result {
	t.Helper()
	e.SetExecWorkers(1)
	serial := mustExec(t, e, sql)
	e.SetExecWorkers(8)
	defer e.SetExecWorkers(1)
	parallel := mustExec(t, e, sql)
	if !reflect.DeepEqual(serial.Columns, parallel.Columns) {
		t.Fatalf("columns diverge: serial %v parallel %v", serial.Columns, parallel.Columns)
	}
	if len(serial.Rows) != len(parallel.Rows) {
		t.Fatalf("row counts diverge: serial %d parallel %d", len(serial.Rows), len(parallel.Rows))
	}
	for i := range serial.Rows {
		if !reflect.DeepEqual(serial.Rows[i], parallel.Rows[i]) {
			t.Fatalf("row %d diverges: serial %v parallel %v", i, serial.Rows[i], parallel.Rows[i])
		}
	}
	return serial
}

func TestParallelScanFilterMatchesSerial(t *testing.T) {
	e := parallelEngine(t)
	res := bothDops(t, e, `SELECT id, score FROM wide WHERE score > 899.0`)
	if len(res.Rows) != 500 { // 100 per 1000-block × 5 blocks
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Gather must preserve the serial scan order.
	first, _ := res.Rows[0][0].AsInt()
	second, _ := res.Rows[1][0].AsInt()
	if first != 900 || second != 901 {
		t.Fatalf("order wrong: %v %v", res.Rows[0], res.Rows[1])
	}
}

func TestParallelJoinDropsNullKeysBothSides(t *testing.T) {
	e := parallelEngine(t)
	res := bothDops(t, e, `SELECT w.id, d.label FROM wide w JOIN dims d ON w.k = d.k`)
	// Every 7th wide row has a NULL key and must not match anything:
	// ceil(5000/7) = 715 dropped rows.
	if want := parRows - 715; len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	for _, row := range res.Rows {
		if row[1].IsNull() {
			t.Fatalf("NULL-keyed row leaked into the join output: %v", row)
		}
	}
}

func TestParallelCrossJoinResidualOnly(t *testing.T) {
	e := parallelEngine(t)
	// No equality conjunct at all: the join degenerates to a keyless
	// cross join filtered by the residual, still morsel-parallel on the
	// probe side. The NULL bound matches nothing (3VL).
	res := bothDops(t, e, `SELECT w.id, t.tag FROM wide w JOIN tiny t ON w.id < t.bound`)
	if want := 3 + 4700; len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
}

func TestParallelGroupByMatchesSerial(t *testing.T) {
	e := parallelEngine(t)
	res := bothDops(t, e, `SELECT grp, COUNT(*), SUM(score), MIN(score), MAX(score), AVG(score)
		FROM wide GROUP BY grp HAVING COUNT(*) > 0`)
	if len(res.Rows) != 4 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	// First-seen order: grp cycles 0,1,2,3 from row 0.
	for g := 0; g < 4; g++ {
		grp, _ := res.Rows[g][0].AsInt()
		count, _ := res.Rows[g][1].AsInt()
		if grp != int64(g) || count != int64(parRows/4) {
			t.Fatalf("group %d = %v", g, res.Rows[g])
		}
	}
}

func TestParallelAggregateOverJoin(t *testing.T) {
	e := parallelEngine(t)
	res := bothDops(t, e, `SELECT COUNT(*) FROM wide w JOIN dims d ON w.k = d.k WHERE w.score > 500.0`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestExplainParallelJoinShape is the planner acceptance check: in a
// three-table join the greedy orderer must pick the small table as the
// hash build side even when it comes first in syntax order, and EXPLAIN
// must render the degree of parallelism on every parallel operator.
func TestExplainParallelJoinShape(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, `CREATE TABLE small (k INTEGER, name TEXT)`)
	mustExec(t, e, `CREATE TABLE big1 (id INTEGER, v FLOAT)`)
	mustExec(t, e, `CREATE TABLE big2 (id INTEGER, w FLOAT)`)
	small, _ := e.Catalog().Get("small")
	for i := 0; i < 50; i++ {
		if err := small.Insert(storage.Int(int64(i)), storage.Text(fmt.Sprintf("s%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"big1", "big2"} {
		tbl, _ := e.Catalog().Get(name)
		for i := 0; i < parRows; i++ {
			if err := tbl.Insert(storage.Int(int64(i)), storage.Float(float64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.SetExecWorkers(8)

	res := mustExec(t, e, `EXPLAIN SELECT b1.id FROM small s
		JOIN big1 b1 ON s.k = b1.id
		JOIN big2 b2 ON b1.id = b2.id`)
	var lines []string
	for _, row := range res.Rows {
		line, _ := row[0].AsText()
		lines = append(lines, line)
	}
	text := strings.Join(lines, "\n")

	// small is syntactically first but must end up as the build (right)
	// input of its join: the key pair renders probe-side first.
	if !strings.Contains(text, "HashJoin(b1.id = s.k)") {
		t.Fatalf("small table is not the build side:\n%s", text)
	}
	// Parallel operators render their dop; the 50-row small scan stays
	// serial.
	for _, want := range []string{
		"Scan(big1 b1) [dop=8]",
		"Scan(big2 b2) [dop=8]",
		"[dop=8]\n", // at least one HashJoin line carries it too
	} {
		if !strings.Contains(text+"\n", want) {
			t.Fatalf("EXPLAIN missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "Scan(small s) [dop") {
		t.Fatalf("50-row scan should stay serial:\n%s", text)
	}
	joinLines := 0
	for _, l := range lines {
		if strings.Contains(l, "HashJoin") && strings.Contains(l, "[dop=8]") {
			joinLines++
		}
	}
	if joinLines != 2 {
		t.Fatalf("want both joins parallel, got %d:\n%s", joinLines, text)
	}
}

// TestParallelJoinDuringCrowdFill races parallel join queries against
// concurrent cell fills and row inserts on the probe table — the exact
// interleaving a crowd expansion produces while readers keep querying.
// Run under -race (nightly does); correctness here is "no error and
// plausible results", since concurrent writers make exact counts racy.
func TestParallelJoinDuringCrowdFill(t *testing.T) {
	e := parallelEngine(t)
	e.SetExecWorkers(8)
	wide, _ := e.Catalog().Get("wide")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Fill cells like a crowd job does, and append fresh rows.
			if err := wide.Set(i%parRows, 3, storage.Float(float64(i))); err != nil {
				t.Error(err)
				return
			}
			if i%50 == 0 {
				if err := wide.Insert(storage.Int(int64(parRows+i)), storage.Int(int64(i%10)),
					storage.Int(int64(i%4)), storage.Null()); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	for q := 0; q < 30; q++ {
		res, err := e.ExecSQL(`SELECT w.id, d.label FROM wide w JOIN dims d ON w.k = d.k`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) < parRows-715 {
			t.Fatalf("query %d returned %d rows, fewer than the seeded minimum", q, len(res.Rows))
		}
	}
	close(stop)
	wg.Wait()
}

// TestParallelErrorPathsReleaseSnapshots runs queries that hit a runtime
// division by zero in each operator body — scan filter, join build, join
// probe, aggregate fold, and a filter above a join of joins — at
// exec-workers 1 and 8. Every run must fail, and afterwards no table may
// still hold a snapshot pin: whichever code closes the build child, the
// probe child, or the morsel sources on the error path, it must close
// them all.
func TestParallelErrorPathsReleaseSnapshots(t *testing.T) {
	e := parallelEngine(t)
	defer e.SetExecWorkers(1)
	queries := map[string]string{
		"scan filter": `SELECT id FROM wide WHERE score / (id - 4500) > 1.0`,
		// The filtered side is the smaller estimate, so it is the build.
		"join build, chain": `SELECT a.id FROM wide a JOIN wide b ON a.id = b.id
			WHERE b.score / (b.id - 4500) > 0`,
		"join build, serial child": `SELECT w.id, d.label FROM wide w JOIN dims d ON w.k = d.k
			WHERE d.k / (d.k - 5) > 0`,
		"join probe": `SELECT w.id, d.label FROM wide w JOIN dims d ON w.k = d.k
			WHERE w.score / (w.id - 4500) > 0`,
		"aggregate fold": `SELECT grp, SUM(score / (id - 4500)) FROM wide GROUP BY grp`,
		"filter above join of joins": `SELECT w.id FROM wide w JOIN dims d ON w.k = d.k
			JOIN tiny t ON w.id < t.bound WHERE w.score / (w.id - t.bound + d.k - d.k + 100) > 0`,
	}
	for name, sql := range queries {
		for _, dop := range []int{1, 8} {
			e.SetExecWorkers(dop)
			_, err := e.ExecSQL(sql)
			if err == nil || !strings.Contains(err.Error(), "division by zero") {
				t.Fatalf("%s at dop %d: err = %v, want division by zero", name, dop, err)
			}
			for _, table := range []string{"wide", "dims", "tiny"} {
				tbl, _ := e.Catalog().Get(table)
				if pins := tbl.LiveSnapshotEpochs(); len(pins) != 0 {
					t.Fatalf("%s at dop %d: %s still pins epochs %v", name, dop, table, pins)
				}
			}
		}
	}
}

// explainText runs EXPLAIN sql and joins the plan lines.
func explainText(t *testing.T, e *Engine, sql string) string {
	t.Helper()
	res := mustExec(t, e, "EXPLAIN "+sql)
	var lines []string
	for _, row := range res.Rows {
		line, _ := row[0].AsText()
		lines = append(lines, line)
	}
	return strings.Join(lines, "\n")
}

// TestParallelTopNMatchesSerial covers the per-worker TopN fold: each
// worker keeps a bounded heap over its morsels and the heaps merge, so
// ties must still break in serial input order, NULL keys must still sort
// last, and the limit edge cases must match a serial run row for row.
func TestParallelTopNMatchesSerial(t *testing.T) {
	e := parallelEngine(t)
	// ties: v is 0 on rows 4090..4105 — straddling the first 4096-row
	// morsel boundary — and 1 everywhere else, so only the stable
	// tie-break decides which ten rows come first.
	mustExec(t, e, `CREATE TABLE ties (id INTEGER, v INTEGER)`)
	ties, _ := e.Catalog().Get("ties")
	for i := 0; i < parRows; i++ {
		v := int64(1)
		if i >= 4090 && i <= 4105 {
			v = 0
		}
		if err := ties.Insert(storage.Int(int64(i)), storage.Int(v)); err != nil {
			t.Fatal(err)
		}
	}
	res := bothDops(t, e, `SELECT id FROM ties ORDER BY v LIMIT 10`)
	wantIDs(t, res, 4090, 4091, 4092, 4093, 4094, 4095, 4096, 4097, 4098, 4099)
	// Past the zeros the ties on v = 1 resume in table order.
	res = bothDops(t, e, `SELECT id FROM ties ORDER BY v LIMIT 18`)
	if id, _ := res.Rows[16][0].AsInt(); id != 0 {
		t.Fatalf("row 16 = %v, want id 0", res.Rows[16])
	}
	if id, _ := res.Rows[17][0].AsInt(); id != 1 {
		t.Fatalf("row 17 = %v, want id 1", res.Rows[17])
	}

	// NULL keys (every 7th k) sort last in either direction, in input
	// order; a limit past every non-NULL row reaches into them.
	for _, sql := range []string{
		`SELECT id, k FROM wide ORDER BY k DESC LIMIT 4500`,
		`SELECT id, k FROM wide ORDER BY k LIMIT 4300`,
	} {
		res := bothDops(t, e, sql)
		last := res.Rows[len(res.Rows)-1]
		if !last[1].IsNull() {
			t.Fatalf("%s: last row %v, want a NULL key", sql, last)
		}
	}

	// LIMIT 0 returns nothing; a limit above the row count returns every
	// row, fully sorted.
	if res := bothDops(t, e, `SELECT id FROM wide ORDER BY score LIMIT 0`); len(res.Rows) != 0 {
		t.Fatalf("LIMIT 0 returned %d rows", len(res.Rows))
	}
	res = bothDops(t, e, `SELECT id, score FROM wide ORDER BY score DESC, id LIMIT 100000`)
	if len(res.Rows) != parRows {
		t.Fatalf("rows = %d, want %d", len(res.Rows), parRows)
	}
	wantIDs(t, &Result{Rows: res.Rows[:3]}, 999, 1999, 2999)

	// ORDER BY an output alias: the key is rewritten onto the expression
	// under the Project.
	res = bothDops(t, e, `SELECT id, score * 2 s FROM wide WHERE grp = 1 ORDER BY s DESC, id LIMIT 5`)
	wantIDs(t, res, 997, 1997, 2997, 3997, 4997)

	// The fold replaces the Gather: TopN carries the dop itself.
	e.SetExecWorkers(8)
	defer e.SetExecWorkers(1)
	text := explainText(t, e, `SELECT id FROM wide ORDER BY score LIMIT 7`)
	if !strings.Contains(text, "TopN(n=7, score) [dop=8]") || strings.Contains(text, "Gather") {
		t.Fatalf("TopN over a chain should fold per worker without a Gather:\n%s", text)
	}
}

// TestParallelGroupIdentityMatchesSerial pins GROUP BY and DISTINCT key
// identity at both dops: values of different kinds stay apart, NULL keys
// form one group, and texts holding tag, length or separator bytes
// cannot forge a multi-column collision.
func TestParallelGroupIdentityMatchesSerial(t *testing.T) {
	e := parallelEngine(t)

	// The NULL group: every 7th k is NULL (715 rows), the rest cycle
	// through ten keys.
	res := bothDops(t, e, `SELECT k, COUNT(*) FROM wide GROUP BY k`)
	if len(res.Rows) != 11 {
		t.Fatalf("groups = %d, want 10 keys plus the NULL group", len(res.Rows))
	}
	if !res.Rows[0][0].IsNull() {
		t.Fatalf("first-seen group = %v, want the NULL key (row 0)", res.Rows[0])
	}
	if n, _ := res.Rows[0][1].AsInt(); n != 715 {
		t.Fatalf("NULL group count = %d, want 715", n)
	}
	if res := bothDops(t, e, `SELECT DISTINCT k FROM wide`); len(res.Rows) != 11 {
		t.Fatalf("DISTINCT k = %d rows, want 11", len(res.Rows))
	}

	// Kinds: 1, 1.0 and '1' each keep their own kind through the group
	// key and the group's output row.
	mustExec(t, e, `CREATE TABLE kinds (i INTEGER, f FLOAT, s TEXT)`)
	kinds, _ := e.Catalog().Get("kinds")
	for r := 0; r < parRows; r++ {
		if err := kinds.Insert(storage.Int(1), storage.Float(1.0), storage.Text("1")); err != nil {
			t.Fatal(err)
		}
	}
	res = bothDops(t, e, `SELECT i, f, s, COUNT(*) FROM kinds GROUP BY i, f, s`)
	if len(res.Rows) != 1 {
		t.Fatalf("groups = %v", res.Rows)
	}
	want := storage.Row{storage.Int(1), storage.Float(1.0), storage.Text("1"), storage.Int(parRows)}
	if !reflect.DeepEqual(res.Rows[0], want) {
		t.Fatalf("group = %v, want %v", res.Rows[0], want)
	}

	// Tricky texts: pairs that collide under a key without length
	// prefixes (tag byte inside the text), under one without kind tags,
	// or under a separator-joined key.
	tag := string([]byte{byte(storage.KindText)})
	pairs := [][2]string{
		{"a" + tag + "b", "c"}, {"a", "b" + tag + "c"},
		{"x\x1f", "y"}, {"x", "\x1fy"},
		{"\x01", "\x01\x01"}, {"\x01\x01", "\x01"},
		{"\x02ab", ""}, {"", "\x02ab"},
		{"", ""},
	}
	mustExec(t, e, `CREATE TABLE tricky (x TEXT, y TEXT)`)
	tricky, _ := e.Catalog().Get("tricky")
	for r := 0; r < parRows; r++ {
		p := pairs[r%len(pairs)]
		if err := tricky.Insert(storage.Text(p[0]), storage.Text(p[1])); err != nil {
			t.Fatal(err)
		}
	}
	res = bothDops(t, e, `SELECT x, y, COUNT(*) FROM tricky GROUP BY x, y`)
	if len(res.Rows) != len(pairs) {
		t.Fatalf("groups = %d, want %d", len(res.Rows), len(pairs))
	}
	for i, p := range pairs {
		x, _ := res.Rows[i][0].AsText()
		y, _ := res.Rows[i][1].AsText()
		if x != p[0] || y != p[1] {
			t.Fatalf("group %d = (%q, %q), want (%q, %q)", i, x, y, p[0], p[1])
		}
	}
	if res := bothDops(t, e, `SELECT DISTINCT x, y FROM tricky`); len(res.Rows) != len(pairs) {
		t.Fatalf("DISTINCT x, y = %d rows, want %d", len(res.Rows), len(pairs))
	}
}

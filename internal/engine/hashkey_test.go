package engine

import (
	"math"
	"testing"

	"crowddb/internal/storage"
)

// Hash keys (join keys, DISTINCT/GROUP BY row keys) concatenate several
// values into one string; these regressions pin down that text values
// containing the encoding's separator or kind-tag bytes cannot forge a
// collision between different rows.

func TestJoinKeyNoSeparatorForgery(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, `CREATE TABLE a (x TEXT, y TEXT)`)
	mustExec(t, e, `CREATE TABLE b (x TEXT, y TEXT)`)
	ta, _ := e.Catalog().Get("a")
	tb, _ := e.Catalog().Get("b")
	// Under a naive "value ␟ value" encoding both rows hash identically
	// even though neither component matches.
	if err := ta.Insert(storage.Text("p"), storage.Text("q\x1ftr")); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(storage.Text("p\x1ftq"), storage.Text("r")); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, e, `SELECT a.x FROM a JOIN b ON a.x = b.x AND a.y = b.y`)
	if len(res.Rows) != 0 {
		t.Fatalf("forged join emitted %d rows", len(res.Rows))
	}
	// Genuinely equal multi-part keys still match, separators included.
	if err := ta.Insert(storage.Text("same\x1f"), storage.Text("key")); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(storage.Text("same\x1f"), storage.Text("key")); err != nil {
		t.Fatal(err)
	}
	res = mustExec(t, e, `SELECT a.x FROM a JOIN b ON a.x = b.x AND a.y = b.y`)
	if len(res.Rows) != 1 {
		t.Fatalf("equal keys with separator bytes matched %d times", len(res.Rows))
	}
}

func TestDistinctKeyNoForgery(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, `CREATE TABLE d (x TEXT, y TEXT)`)
	td, _ := e.Catalog().Get("d")
	// ("a␟Tb", "c") vs ("a", "b␟Tc") — where T is the text kind tag —
	// collide under a kind-tag ␟-separated encoding without length
	// prefixes.
	tag := string([]byte{byte(storage.KindText)})
	if err := td.Insert(storage.Text("a\x1f"+tag+"b"), storage.Text("c")); err != nil {
		t.Fatal(err)
	}
	if err := td.Insert(storage.Text("a"), storage.Text("b\x1f"+tag+"c")); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, e, `SELECT DISTINCT x, y FROM d`)
	if len(res.Rows) != 2 {
		t.Fatalf("distinct collapsed %d different rows", 2-len(res.Rows)+1)
	}
}

// A hash join must agree with the `=` operator: -0.0 = 0.0, so a -0.0
// row joins a 0.0 row (and an integer 0), exactly as WHERE x = 0.0
// matches it, at every dop.
func TestJoinNegativeZero(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, `CREATE TABLE a (x FLOAT)`)
	mustExec(t, e, `CREATE TABLE b (y FLOAT, z INTEGER)`)
	ta, _ := e.Catalog().Get("a")
	tb, _ := e.Catalog().Get("b")
	if err := ta.Insert(storage.Float(math.Copysign(0, -1))); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(storage.Float(0), storage.Int(0)); err != nil {
		t.Fatal(err)
	}
	if n, _ := mustExec(t, e, `SELECT COUNT(*) FROM a WHERE x = 0.0`).Rows[0][0].AsInt(); n != 1 {
		t.Fatalf("WHERE x = 0.0 matched %d rows, want 1", n)
	}
	for _, dop := range []int{1, 8} {
		e.SetExecWorkers(dop)
		for _, sql := range []string{
			`SELECT COUNT(*) FROM a JOIN b ON a.x = b.y`,
			`SELECT COUNT(*) FROM a JOIN b ON a.x = b.z`,
		} {
			if n, _ := mustExec(t, e, sql).Rows[0][0].AsInt(); n != 1 {
				t.Fatalf("dop %d: %s = %d, want 1", dop, sql, n)
			}
		}
	}
}

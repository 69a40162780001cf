package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"crowddb/internal/engine"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// analytic — scans, joins and aggregation over a large table.
//
// Why: the morsel executor, the vectorized filters and the storage scans
// do all the work; HTTP, parse and the cache do almost none. One client
// leaves both cores to intra-query parallelism, so the degree of
// parallelism (dop) the executor picks shows in every figure.
//
// Sizes: a 1M-row events table and a 10k-row users table, no indexes.
// Five query classes: filter COUNT, filtered TopN (ORDER BY score DESC,
// id LIMIT 10), GROUP BY aggregate over a ts window, join+filter COUNT,
// and a selective row-returning filter (about 2k rows). They run in
// blocks of seven in a seeded order, filter COUNT three times per block.
// The classes cost about 17 ms (filter, rows), 35 ms (TopN), 80 ms
// (join) and 110 ms (GROUP BY) here, and a garbage collection (about one
// per block: the queries allocate tens of MB each over a 220 MB live
// heap) lands on whichever query is running. A median over the pooled
// reads sits on the upper edge of the 17 ms cluster and a class median
// flips between the collected and the clean mode, so both moved up to 45%
// between runs of the same code. The read figures are therefore taken
// per block, which always holds the same mix and about one collection:
// read_p50_ms is the median block's duration per read, read_qps its
// reads per second. With one closed-loop client the two carry the same
// information; the per-class medians are exec.execute_ms_p50.<class>
// and read_tail_ms keeps the pooled tail. Literals are drawn from the seed
// within ranges that keep each class's work per query within about
// ±10%, so seeds differ in their inputs but not in their cost. No query
// repeats, so the result cache never hits: every answer is stored and
// none is reused. (The stored results of one run total a few MiB, below
// the 64 MiB cache, so evictions stay near zero.)
//
// Load: 1 closed-loop client. Flush policy: in memory.
//
// Checks: every answer structurally (row counts, predicates on the
// returned columns, group counts summing to the ts window). Outside the
// window, a seeded sample of two answers per class is re-run through a
// dop=1 engine on the same catalog and must be row-identical. At the
// seed commit the GROUP BY class's AVG(score) differs from the dop=1
// answer in its last bits: the parallel aggregate adds per-worker
// partial sums, so the rounding depends on which worker claimed which
// morsel. That drift is counted in exec.dop_float_drift and kept out of
// failed because it depends on thread timing (see sameRows); any other
// difference fails the answer.
type analytic struct {
	n, users int
	rng      *rand.Rand
	seen     map[string]bool
	// kept holds the first answers of each class for the dop=1 re-run.
	kept map[string][]keptAnswer
}

type keptAnswer struct {
	sql  string
	rows [][]any
}

var analyticClasses = []string{"filter", "topn", "groupby", "join", "rows"}

// analyticBlock is the mix of one block; run shuffles a copy per block.
var analyticBlock = []string{"filter", "filter", "filter", "topn", "groupby", "join", "rows"}

// keepPerClass bounds the answers kept for the sampled re-run.
const keepPerClass = 20

func (w *analytic) setup(p *phase) (*env, error) {
	w.rng = rand.New(rand.NewSource(p.cfg.seed))
	w.n, w.users = p.scaled(1_000_000), p.scaled(10_000)
	w.seen = map[string]bool{}
	w.kept = map[string][]keptAnswer{}
	e, err := p.serve(crowdserveDefaults())
	if err != nil {
		return nil, err
	}
	for _, sql := range []string{
		`CREATE TABLE events (id INTEGER, user_id INTEGER, kind INTEGER, score FLOAT, ts INTEGER)`,
		`CREATE TABLE users (id INTEGER, segment INTEGER, age INTEGER)`,
	} {
		if _, _, err := e.db.ExecSQL(sql); err != nil {
			e.close()
			return nil, err
		}
	}
	ev, _ := e.db.Catalog().Get("events")
	start := time.Now()
	for i := 0; i < w.n; i++ {
		if err := ev.Insert(storage.Int(int64(i)), storage.Int(int64(w.rng.Intn(w.users))),
			storage.Int(int64(w.rng.Intn(20))), storage.Float(math.Round(w.rng.Float64()*1e6)/1e3),
			storage.Int(int64(i))); err != nil {
			e.close()
			return nil, err
		}
	}
	p.insertSpan(start, time.Now(), "events", w.n)
	us, _ := e.db.Catalog().Get("users")
	start = time.Now()
	for i := 0; i < w.users; i++ {
		if err := us.Insert(storage.Int(int64(i)), storage.Int(int64(w.rng.Intn(50))),
			storage.Int(int64(18+w.rng.Intn(60)))); err != nil {
			e.close()
			return nil, err
		}
	}
	p.insertSpan(start, time.Now(), "users", w.users)
	return e, nil
}

// next draws the next query of class c; literals never repeat a query.
func (w *analytic) next(c string) (sql string, lit [3]float64) {
	for {
		r := w.rng
		switch c {
		case "filter":
			lit = [3]float64{float64(r.Intn(1e6)) / 1e3, float64(r.Intn(20))}
			sql = fmt.Sprintf("SELECT COUNT(*) FROM events WHERE score > %.3f AND kind = %d", lit[0], int(lit[1]))
		case "topn":
			lit = [3]float64{float64(r.Intn(20)), float64(450e3+r.Intn(100e3)) / 1e3}
			sql = fmt.Sprintf("SELECT id, score FROM events WHERE kind = %d AND score < %.3f ORDER BY score DESC, id LIMIT 10", int(lit[0]), lit[1])
		case "groupby":
			a := r.Intn(w.n * 2 / 5)
			b := a + w.n*9/20 + r.Intn(w.n/10)
			lit = [3]float64{float64(a), float64(b)}
			sql = fmt.Sprintf("SELECT kind, COUNT(*), AVG(score) FROM events WHERE ts >= %d AND ts < %d GROUP BY kind", a, b)
		case "join":
			lit = [3]float64{float64(r.Intn(50)), float64(450e3+r.Intn(100e3)) / 1e3}
			sql = fmt.Sprintf("SELECT COUNT(*) FROM events e JOIN users u ON e.user_id = u.id WHERE u.segment = %d AND e.score > %.3f", int(lit[0]), lit[1])
		case "rows":
			lit = [3]float64{float64(985e3+r.Intn(10e3)) / 1e3, float64(4 + r.Intn(5)), float64(w.n*3/5 + r.Intn(w.n*2/5))}
			sql = fmt.Sprintf("SELECT id, user_id, score FROM events WHERE score > %.3f AND kind < %d AND ts < %d", lit[0], int(lit[1]), int(lit[2]))
		}
		if !w.seen[sql] {
			w.seen[sql] = true
			return sql, lit
		}
	}
}

func (w *analytic) run(e *env, deadline time.Time) error {
	cl := e.newClient("c0")
	defer e.p.merge(cl.rec)
	order := append([]string(nil), analyticBlock...)
	var blockStart time.Time
	for i := 0; time.Now().Before(deadline); i++ {
		if i%len(order) == 0 {
			blockStart = time.Now()
			// A seeded order per block: a fixed order lets the garbage
			// collector's cycle lock onto one class and move that
			// class's latency from run to run.
			w.rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		}
		c := order[i%len(order)]
		sql, lit := w.next(c)
		rep, d, err := cl.query(c, sql)
		if err == nil {
			cl.rec.add("read", d)
			cl.rec.add("class."+c, d)
			err = w.checkShape(c, lit, rep.Rows)
			if len(w.kept[c]) < keepPerClass {
				w.kept[c] = append(w.kept[c], keptAnswer{sql: sql, rows: rep.Rows})
			}
		}
		e.p.check(err)
		if i%len(order) == len(order)-1 {
			cl.rec.add("block", time.Since(blockStart))
		}
	}
	return nil
}

// readFigures takes the read figures from the median block.
func (w *analytic) readFigures(p *phase) (p50ms, qps float64, ok bool) {
	block := p.p50("block")
	if block <= 0 {
		return 0, 0, false
	}
	n := float64(len(analyticBlock))
	return block / n, n / (block / 1e3), true
}

// checkShape checks what an answer must satisfy without recomputing it.
func (w *analytic) checkShape(c string, lit [3]float64, rows [][]any) error {
	bad := func(format string, a ...any) error {
		return fmt.Errorf("analytic %s: %s", c, fmt.Sprintf(format, a...))
	}
	switch c {
	case "filter", "join":
		if len(rows) != 1 {
			return bad("%d rows", len(rows))
		}
		if n, ok := asInt(rows[0][0]); !ok || n < 0 || n > int64(w.n) {
			return bad("count %v", rows[0][0])
		}
	case "topn":
		if len(rows) > 10 {
			return bad("%d rows > LIMIT 10", len(rows))
		}
		for i, r := range rows {
			s, ok := asFloat(r[1])
			if !ok || s >= lit[1] {
				return bad("score %v not < %g", r[1], lit[1])
			}
			if i > 0 {
				ps, _ := asFloat(rows[i-1][1])
				pid, _ := asInt(rows[i-1][0])
				id, _ := asInt(r[0])
				if s > ps || (s == ps && id < pid) {
					return bad("rows out of order at %d", i)
				}
			}
		}
	case "groupby":
		if len(rows) == 0 || len(rows) > 20 {
			return bad("%d groups", len(rows))
		}
		var total int64
		for _, r := range rows {
			n, ok := asInt(r[1])
			if !ok || n <= 0 {
				return bad("group count %v", r[1])
			}
			total += n
		}
		if total != int64(lit[1]-lit[0]) {
			return bad("group counts sum to %d, want %d", total, int64(lit[1]-lit[0]))
		}
	case "rows":
		for _, r := range rows {
			id, _ := asInt(r[0])
			s, _ := asFloat(r[2])
			if s <= lit[0] || float64(id) >= lit[2] {
				return bad("row %v violates score > %g AND ts < %g", r, lit[0], lit[2])
			}
		}
	}
	return nil
}

// verify re-runs a seeded sample of kept answers through a dop=1 engine
// on the same catalog (row-identical or failed), and times the same
// plans at dop=1 and at the default dop for exec.dop1_over_dopN.
func (w *analytic) verify(e *env) error {
	serial := engine.New(e.db.Catalog())
	serial.SetExecWorkers(1)
	parallel := engine.New(e.db.Catalog())
	rng := rand.New(rand.NewSource(e.p.cfg.seed + 1))
	var calls, driftAnswers int
	var allocs, mallocs uint64
	for _, c := range analyticClasses {
		kept := w.kept[c]
		picks := rng.Perm(len(kept))
		if len(picks) > 2 {
			picks = picks[:2]
		}
		var t1, tn time.Duration
		for _, i := range picks {
			k := kept[i]
			res, d1, err := timedExec(serial, k.sql)
			drift := false
			if err == nil {
				drift, err = sameRows(k.rows, res.Rows)
			}
			e.p.check(err)
			if drift {
				driftAnswers++
			}
			if err != nil {
				continue
			}
			t1 += d1
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			_, dn, err := timedExec(parallel, k.sql)
			runtime.ReadMemStats(&ms1)
			if err != nil {
				return err
			}
			tn += dn
			calls++
			allocs += ms1.TotalAlloc - ms0.TotalAlloc
			mallocs += ms1.Mallocs - ms0.Mallocs
		}
		if tn > 0 {
			e.p.m["exec.dop1_over_dopN."+c] = float64(t1) / float64(tn)
		}
	}
	e.p.m["exec.dop_float_drift"] = float64(driftAnswers)
	if calls > 0 {
		e.p.m["exec.alloc_kb_per_query"] = float64(allocs) / 1e3 / float64(calls)
		e.p.m["exec.mallocs_per_query"] = float64(mallocs) / float64(calls)
	}
	return nil
}

// timedExec plans sql on eng and times engine.ExecPlan: the median of
// three executions, returning the last result.
func timedExec(eng *engine.Engine, sql string) (*engine.Result, time.Duration, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, 0, err
	}
	sel, ok := stmt.(*sqlparse.SelectStmt)
	if !ok {
		return nil, 0, fmt.Errorf("not a SELECT: %s", sql)
	}
	var res *engine.Result
	var ds []float64
	for i := 0; i < 3; i++ {
		pl, err := eng.PlanSelect(sel)
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		res, err = engine.ExecPlan(pl)
		ds = append(ds, float64(time.Since(t0)))
		if err != nil {
			return nil, 0, err
		}
	}
	sort.Float64s(ds)
	return res, time.Duration(ds[1]), nil
}

// sameRows compares an answer decoded from JSON with engine rows. Every
// value must be identical, with one exception reported as drift rather
// than failure: a float that differs from the dop=1 value by at most a
// relative 1e-9, the signature of a parallel aggregate summing its
// partial sums in another order. Which worker sums which morsel depends
// on thread timing, so, like write_mix's lost updates, the drift is
// counted (exec.dop_float_drift) and kept out of failed.
func sameRows(got [][]any, want []storage.Row) (drift bool, err error) {
	if len(got) != len(want) {
		return false, fmt.Errorf("dop=1 re-run: %d rows over HTTP, %d at dop=1", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return false, fmt.Errorf("dop=1 re-run: row %d width differs", i)
		}
		for j, v := range want[i] {
			if sameValue(got[i][j], v) {
				continue
			}
			f, _ := v.AsFloat()
			g, ok := asFloat(got[i][j])
			if v.Kind() == storage.KindFloat && ok && math.Abs(g-f) <= 1e-9*math.Abs(f) {
				drift = true
				continue
			}
			return false, fmt.Errorf("dop=1 re-run: row %d col %d is %v over HTTP, %v at dop=1", i, j, got[i][j], v)
		}
	}
	return drift, nil
}

func sameValue(got any, v storage.Value) bool {
	switch v.Kind() {
	case storage.KindInt:
		n, _ := v.AsInt()
		g, ok := asInt(got)
		return ok && g == n
	case storage.KindFloat:
		f, _ := v.AsFloat()
		g, ok := asFloat(got)
		return ok && g == f
	case storage.KindBool:
		b, _ := v.AsBool()
		g, ok := got.(bool)
		return ok && g == b
	case storage.KindText:
		s, _ := v.AsText()
		g, ok := got.(string)
		return ok && g == s
	default:
		return got == nil
	}
}

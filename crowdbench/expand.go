package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"crowddb/internal/core"
	"crowddb/internal/crowd"
	"crowddb/internal/dataset"
	"crowddb/internal/jobs"
	"crowddb/internal/space"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// expandWL — query-driven schema expansion, the paper's subject.
//
// Why: the only workload that exercises jobs, crowd, svm, space,
// FillColumn and the cost ledger. Dollars and G-mean (the geometric mean
// of the true-positive and true-negative rates) are deterministic per
// seed, so a change that trades quality for speed shows.
//
// Sizes: the paper's three domains — movies, restaurants, board games —
// generated by internal/dataset at ScaleSmall (1200 items each). Set-up
// trains one perceptual space per domain at crowdserve's 16 dimensions
// and 25 epochs, and builds one 40-worker simulated crowd. Each round
// (re)creates one table per domain, named after the domain, whose
// categories are registered as expandable with SPACE and 40 samples per
// class (36 columns over the three tables).
//
// Load: 2 closed-loop clients. The expansion client walks each round's
// 36 (table, column) pairs in seeded order, issuing a SELECT COUNT that
// references the not-yet-expanded column (the triggering request whose
// latency is expand_p50_ms), then re-elicits one seeded column with
// EXPAND TABLE … USING HYBRID and one with USING CROWD. Round 1 always
// completes; later rounds run until the window closes. The reader
// client issues small SELECTs on already-expanded columns, alternating
// a COUNT (about 0.1 ms here, mostly answered from the result cache) and
// a top-10 by year (about 0.3 ms). A median over the pooled reads falls
// in the gap between the two and jumps with their balance, so
// read_p50_ms is the geometric mean of the two kinds' medians. The
// reader is one closed-loop client; its read_qps is its typical pace,
// one over the median time between consecutive reads. Its pace drops
// while HYBRID and CROWD re-elicitations (about half a second of CPU
// each) run, and a rate over the whole window moves with how much CPU
// a shared host's neighbours leave the run; the stalls the expansions
// cause show in read_tail_ms. Every round drops and re-creates the same
// tables, so it issues the same query texts as the last: the live data
// and the result cache's entries, and with them heap_mb, stay the same
// however many rounds a run completes.
//
// Flush policy: in memory.
//
// Checks: each expansion's Filled equals the non-NULL count read back
// over HTTP and its COUNT equals the read-back TRUE count; every reader
// answer matches the read-back values; round 1's spend on the ledger
// equals the sum of its expansion reports. The cost and quality figures
// (expand_usd_per_col, expand_gmean, crowd.*_per_col, crowd.charges)
// cover round 1, the part of the run that is the same on every run.
type expandWL struct {
	domains []*domain
	svc     *benchCrowd

	mu       sync.Mutex
	readable []*colState

	// round-1 accounting (fixed per seed)
	r1 struct {
		usd, minutes float64
		judgments    int
		cols         int
		gmeans       []float64
	}
	// triggers lists, per job key, the requests that expanded the column
	// in submission order (the order GET /v1/jobs lists jobs in).
	triggers map[string][]string
}

type domain struct {
	name  string
	u     *dataset.Universe
	sp    *space.Space
	cols  []string
	catOf map[string]string // SQL column → category name
}

// colState is one expanded column as last read back over HTTP.
type colState struct {
	mu    sync.RWMutex // held for writing while the column is re-elicited
	d     *domain
	table string
	col   string
	trues int
	// byYear lists the TRUE items ordered by (year, item_id), the order
	// of the reader's LIMIT query.
	byYear []int
}

// benchCrowd is the benchmark's JudgmentService: it wraps the simulated
// crowd, keeps CollectBatch, and times every call.
type benchCrowd struct {
	inner *core.SimulatedCrowd
	mu    sync.Mutex
	calls []collectCall
}

type collectCall struct {
	questions  []string
	start, end time.Time
}

func (b *benchCrowd) record(qs []string, start time.Time) {
	b.mu.Lock()
	b.calls = append(b.calls, collectCall{questions: qs, start: start, end: time.Now()})
	b.mu.Unlock()
}

func (b *benchCrowd) Collect(q string, ids []int, cfg crowd.JobConfig) (*crowd.RunResult, error) {
	start := time.Now()
	res, err := b.inner.Collect(q, ids, cfg)
	b.record([]string{q}, start)
	return res, err
}

func (b *benchCrowd) CollectBatch(reqs []core.BatchRequest, cfg crowd.JobConfig) (*crowd.BatchResult, error) {
	start := time.Now()
	res, err := b.inner.CollectBatch(reqs, cfg)
	qs := make([]string, len(reqs))
	for i, r := range reqs {
		qs[i] = r.Question
	}
	b.record(qs, start)
	return res, err
}

// sqlName turns a category name into a column identifier.
func sqlName(cat string) string {
	var sb strings.Builder
	for _, r := range strings.ToLower(cat) {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			sb.WriteRune(r)
		} else if sb.Len() > 0 && !strings.HasSuffix(sb.String(), "_") {
			sb.WriteByte('_')
		}
	}
	return strings.Trim(sb.String(), "_")
}

func (w *expandWL) setup(p *phase) (*env, error) {
	seed := p.cfg.seed
	rng := rand.New(rand.NewSource(seed))
	scale := dataset.ScaleSmall
	if p.cfg.scale < 1 {
		scale = dataset.Scale{Items: 300, Users: 600, RatingsPerUser: 60}
	}
	byCol := map[string]*domain{}
	var trainTotal float64
	for i, mk := range []func(dataset.Scale, int64) dataset.Config{dataset.Movies, dataset.Restaurants, dataset.BoardGames} {
		u, err := dataset.Generate(mk(scale, seed+int64(i)))
		if err != nil {
			return nil, err
		}
		cfg := space.DefaultConfig()
		cfg.Dims, cfg.Epochs, cfg.Seed = 16, 25, seed
		start := time.Now()
		model, _, err := space.TrainEuclidean(u.Ratings, cfg)
		if err != nil {
			return nil, err
		}
		end := time.Now()
		trainTotal += end.Sub(start).Seconds()
		if p.tr != nil {
			p.tr.span("space.train", start, end, 0, "setup", map[string]any{"domain": u.Config.Name})
		}
		d := &domain{name: u.Config.Name, u: u, sp: space.FromModel(model), catOf: map[string]string{}}
		for _, cat := range u.CategoryNames() {
			col := sqlName(cat)
			d.cols = append(d.cols, col)
			d.catOf[col] = cat
			byCol[col] = d
		}
		w.domains = append(w.domains, d)
	}
	p.m["space.train_s"] = trainTotal
	items := func(question string) ([]crowd.Item, error) {
		d, ok := byCol[question]
		if !ok {
			return nil, fmt.Errorf("no category for column %q", question)
		}
		return d.u.CrowdItems(d.catOf[question])
	}
	pop := crowd.NewPopulation(crowd.PopulationConfig{Workers: 40}, rng)
	w.svc = &benchCrowd{inner: core.NewSimulatedCrowd(pop, items, rng)}
	w.triggers = map[string][]string{}
	opts := crowdserveDefaults()
	opts.Service = w.svc
	e, err := p.serve(opts)
	if err != nil {
		return nil, err
	}
	if err := w.newRound(e, true); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// newRound creates a round's tables, binds their spaces and registers
// every category as an expandable column.
func (w *expandWL) newRound(e *env, inSetup bool) error {
	for _, d := range w.domains {
		t := d.name
		if _, _, err := e.db.ExecSQL(fmt.Sprintf("CREATE TABLE %s (item_id INTEGER, name TEXT, year INTEGER)", t)); err != nil {
			return err
		}
		tbl, _ := e.db.Catalog().Get(t)
		start := time.Now()
		for _, it := range d.u.Items {
			if err := tbl.Insert(storage.Int(int64(it.ID)), storage.Text(it.Name), storage.Int(int64(it.Year))); err != nil {
				return err
			}
		}
		if inSetup {
			e.p.insertSpan(start, time.Now(), t, len(d.u.Items))
		}
		if err := e.db.AttachSpace(t, "item_id", d.sp); err != nil {
			return err
		}
		for _, col := range d.cols {
			e.db.RegisterExpandable(t, col, storage.KindBool, core.ExpandOptions{SamplesPerClass: 40})
		}
	}
	return nil
}

// resetRound retires the last round's columns, drops its tables and
// creates the next round's under the same names. Retired columns leave
// the reader's list and stay write-locked for good: a read in flight
// finishes before the drop, and a column the reader picked just before
// it fails TryRLock.
func (w *expandWL) resetRound(e *env) error {
	w.mu.Lock()
	retired := w.readable
	w.readable = nil
	w.mu.Unlock()
	for _, cs := range retired {
		cs.mu.Lock()
	}
	for _, d := range w.domains {
		if _, _, err := e.db.ExecSQL("DROP TABLE " + d.name); err != nil {
			return err
		}
	}
	return w.newRound(e, false)
}

type ledgerTotals struct {
	Judgments int
	Cost      float64
	Minutes   float64
	Jobs      int
}

func (w *expandWL) run(e *env, deadline time.Time) error {
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var runErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(stop)
		runErr = w.expansions(e, deadline)
	}()
	go func() {
		defer wg.Done()
		w.reader(e, deadline, stop)
	}()
	wg.Wait()
	if runErr != nil {
		return runErr
	}
	p := e.p
	p.m["expand_p50_ms"] = p.p50("expand")
	p.m["expand_tail_ms"] = p.tailOf("expand_tail_ms", "expand")
	p.m["expand.hybrid_ms_p50"] = p.p50("hybrid")
	p.m["expand.crowd_ms_p50"] = p.p50("crowd")
	if n := float64(w.r1.cols); n > 0 {
		p.m["expand_usd_per_col"] = w.r1.usd / n
		p.m["crowd.judgments_per_col"] = float64(w.r1.judgments) / n
		p.m["crowd.sim_minutes_per_col"] = w.r1.minutes / n
		var s float64
		for _, g := range w.r1.gmeans {
			s += g
		}
		p.m["expand_gmean"] = s / float64(len(w.r1.gmeans))
	}
	return nil
}

// expansions is the expansion client's loop.
func (w *expandWL) expansions(e *env, deadline time.Time) error {
	cl := e.newClient("x")
	defer e.p.merge(cl.rec)
	var before ledgerTotals
	if err := cl.get("/v1/ledger", &before); err != nil {
		return err
	}
	for r := 1; r == 1 || time.Now().Before(deadline); r++ {
		if r > 1 {
			if err := w.resetRound(e); err != nil {
				return err
			}
		}
		rng := rand.New(rand.NewSource(e.p.cfg.seed*31 + int64(r)))
		type pair struct {
			d   *domain
			col string
		}
		var pairs []pair
		for _, d := range w.domains {
			for _, col := range d.cols {
				pairs = append(pairs, pair{d, col})
			}
		}
		rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
		var done []*colState
		for _, pc := range pairs {
			if r > 1 && !time.Now().Before(deadline) {
				return nil
			}
			cs := &colState{d: pc.d, table: pc.d.name, col: pc.col}
			sql := fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s = true", cs.table, cs.col)
			err := w.expandOnce(e, cl, cs, sql, "expand", sqlparse.ExpandSpace, r == 1)
			e.p.check(err)
			if err != nil {
				continue
			}
			done = append(done, cs)
			w.mu.Lock()
			w.readable = append(w.readable, cs)
			w.mu.Unlock()
		}
		for i, m := range []sqlparse.ExpandMethod{sqlparse.ExpandHybrid, sqlparse.ExpandCrowd} {
			if len(done) < 2 || (r > 1 && !time.Now().Before(deadline)) {
				break
			}
			cs := done[(rng.Intn(len(done)/2))*2+i]
			sql := fmt.Sprintf("EXPAND TABLE %s ADD COLUMN %s BOOLEAN USING %s", cs.table, cs.col, m)
			cs.mu.Lock()
			err := w.expandOnce(e, cl, cs, sql, strings.ToLower(string(m)), m, r == 1)
			cs.mu.Unlock()
			e.p.check(err)
		}
		if r == 1 {
			var after ledgerTotals
			if err := cl.get("/v1/ledger", &after); err != nil {
				return err
			}
			e.p.m["crowd.charges"] = float64(after.Jobs - before.Jobs)
			var lerr error
			if math.Abs((after.Cost-before.Cost)-w.r1.usd) > 1e-6 {
				lerr = fmt.Errorf("ledger booked $%.4f in round 1, expansion reports sum to $%.4f", after.Cost-before.Cost, w.r1.usd)
			}
			e.p.check(lerr)
		}
	}
	return nil
}

// readFigures reports the geometric mean of the two read kinds' medians
// and the reader's pace at the median gap between its reads.
func (w *expandWL) readFigures(p *phase) (p50ms, qps float64, ok bool) {
	count, top10, gap := p.p50("read.count"), p.p50("read.top10"), p.p50("read_gap")
	if count <= 0 || top10 <= 0 || gap <= 0 {
		return 0, 0, false
	}
	return math.Sqrt(count * top10), 1e3 / gap, true
}

// expandOnce sends one expanding statement, reads the column back over
// HTTP, and checks and accounts the expansion.
func (w *expandWL) expandOnce(e *env, cl *client, cs *colState, sql, kind string, method sqlparse.ExpandMethod, round1 bool) error {
	rep, d, err := cl.query(kind, sql)
	key := strings.ToLower(cs.table + "." + cs.col)
	w.mu.Lock()
	w.triggers[key] = append(w.triggers[key], fmt.Sprintf("%s-%d", cl.name, cl.n))
	w.mu.Unlock()
	if err != nil {
		return err
	}
	x := rep.Expansion
	if x == nil || x.Method != method {
		return fmt.Errorf("%s: no %s expansion in the answer (%+v)", abbrev(sql), method, x)
	}
	cl.rec.add(kind, d)
	back, _, err := cl.query("readback", fmt.Sprintf("SELECT item_id, %s FROM %s", cs.col, cs.table))
	if err != nil {
		return err
	}
	vals := map[int64]bool{}
	trues := 0
	for _, r := range back.Rows {
		id, _ := asInt(r[0])
		if b, ok := r[1].(bool); ok {
			vals[id] = b
			if b {
				trues++
			}
		}
	}
	if len(vals) != x.Filled {
		return fmt.Errorf("%s.%s: expansion filled %d rows, %d non-NULL read back", cs.table, cs.col, x.Filled, len(vals))
	}
	if method == sqlparse.ExpandSpace {
		if len(rep.Rows) != 1 {
			return fmt.Errorf("%s: %d rows", abbrev(sql), len(rep.Rows))
		}
		if n, _ := asInt(rep.Rows[0][0]); n != int64(trues) {
			return fmt.Errorf("%s.%s: COUNT said %d TRUE, %d read back", cs.table, cs.col, n, trues)
		}
	}
	items := cs.d.u.Items
	var byYear []int
	for id, v := range vals {
		if v {
			byYear = append(byYear, int(id))
		}
	}
	sort.Slice(byYear, func(a, b int) bool {
		ya, yb := items[byYear[a]].Year, items[byYear[b]].Year
		return ya < yb || ya == yb && byYear[a] < byYear[b]
	})
	cs.trues, cs.byYear = trues, byYear
	if round1 {
		w.r1.usd += x.Cost
		w.r1.minutes += x.Minutes
		w.r1.judgments += x.Judgments
		w.r1.cols++
		w.r1.gmeans = append(w.r1.gmeans, gmean(vals, cs.d.u.Categories[cs.d.catOf[cs.col]].Reference))
	}
	return nil
}

// gmean is sqrt(TPR·TNR) of the filled values against the reference.
func gmean(vals map[int64]bool, ref []bool) float64 {
	var tp, fn, tn, fp float64
	for id, v := range vals {
		switch {
		case ref[id] && v:
			tp++
		case ref[id]:
			fn++
		case v:
			fp++
		default:
			tn++
		}
	}
	if tp+fn == 0 || tn+fp == 0 {
		return 0
	}
	return math.Sqrt(tp / (tp + fn) * tn / (tn + fp))
}

// reader issues small SELECTs on already-expanded columns and checks
// them against the values the expansion client read back.
func (w *expandWL) reader(e *env, deadline time.Time, stop <-chan struct{}) {
	cl := e.newClient("r")
	defer e.p.merge(cl.rec)
	rng := rand.New(rand.NewSource(e.p.cfg.seed*131 + 7))
	var last time.Time // when the previous read completed
	for i := 0; time.Now().Before(deadline); i++ {
		select {
		case <-stop:
			return
		default:
		}
		w.mu.Lock()
		var cs *colState
		if n := len(w.readable); n > 0 {
			cs = w.readable[rng.Intn(n)]
		}
		w.mu.Unlock()
		if cs == nil || !cs.mu.TryRLock() {
			time.Sleep(time.Millisecond)
			continue
		}
		kind, year := "read.top10", 1935+rng.Intn(76)
		sql := fmt.Sprintf("SELECT item_id, name FROM %s WHERE %s = true AND year >= %d ORDER BY year, item_id LIMIT 10", cs.table, cs.col, year)
		if i%2 == 0 {
			kind, sql = "read.count", fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s = true", cs.table, cs.col)
		}
		rep, d, err := cl.query("read", sql)
		if err == nil {
			cl.rec.add("read", d)
			cl.rec.add(kind, d)
			now := time.Now()
			if !last.IsZero() {
				cl.rec.add("read_gap", now.Sub(last))
			}
			last = now
			err = w.checkRead(cs, i%2 == 0, year, rep)
		}
		cs.mu.RUnlock()
		e.p.check(err)
	}
}

func (w *expandWL) checkRead(cs *colState, count bool, year int, rep *reply) error {
	if count {
		if len(rep.Rows) != 1 {
			return fmt.Errorf("%s.%s count: %d rows", cs.table, cs.col, len(rep.Rows))
		}
		if n, _ := asInt(rep.Rows[0][0]); n != int64(cs.trues) {
			return fmt.Errorf("%s.%s: COUNT %d, read back %d TRUE", cs.table, cs.col, n, cs.trues)
		}
		return nil
	}
	items := cs.d.u.Items
	i := sort.Search(len(cs.byYear), func(i int) bool { return items[cs.byYear[i]].Year >= year })
	want := cs.byYear[i:min(i+10, len(cs.byYear))]
	if len(rep.Rows) != len(want) {
		return fmt.Errorf("%s.%s year >= %d: %d rows, want %d", cs.table, cs.col, year, len(rep.Rows), len(want))
	}
	for i, r := range rep.Rows {
		id, _ := asInt(r[0])
		name, _ := r[1].(string)
		if id != int64(want[i]) || name != items[want[i]].Name {
			return fmt.Errorf("%s.%s year >= %d: row %d is %v, want item %d", cs.table, cs.col, year, i, r, want[i])
		}
	}
	return nil
}

// verify reads the job table for queue and run times, splits run time
// into crowd collection and model training plus fill, and under tracing
// adds job and crowd spans under the request that caused them.
func (w *expandWL) verify(e *env) error {
	cl := e.newClient("verify")
	var list []jobs.Status
	if err := cl.get("/v1/jobs", &list); err != nil {
		return err
	}
	w.svc.mu.Lock()
	calls := append([]collectCall(nil), w.svc.calls...)
	w.svc.mu.Unlock()
	var collect []float64
	for _, c := range calls {
		collect = append(collect, float64(c.end.Sub(c.start).Nanoseconds())/1e6)
	}
	e.p.m["crowd.collect_ms_p50"] = median(collect)

	tr := e.p.tr
	if tr != nil {
		tr.build()
	}
	var wait, run, fill []float64
	seen := map[string]int{}
	for _, st := range list {
		nth := seen[st.Key]
		seen[st.Key]++
		if st.Started.IsZero() || st.Finished.IsZero() {
			continue
		}
		wait = append(wait, float64(st.Started.Sub(st.Created).Nanoseconds())/1e6)
		runD := st.Finished.Sub(st.Started)
		run = append(run, float64(runD.Nanoseconds())/1e6)
		col := st.Key[strings.LastIndex(st.Key, ".")+1:]
		var mine []collectCall
		var collected time.Duration
		for _, c := range calls {
			if !c.start.Before(st.Started) && !c.end.After(st.Finished) && contains(c.questions, col) {
				mine = append(mine, c)
				collected += c.end.Sub(c.start)
			}
		}
		fill = append(fill, float64((runD-collected).Nanoseconds())/1e6)
		if tr == nil {
			continue
		}
		var req string
		w.mu.Lock()
		if reqs := w.triggers[st.Key]; nth < len(reqs) {
			req = reqs[nth]
		}
		w.mu.Unlock()
		parent := tr.find(req, "core")
		jid := tr.span("job", st.Created, st.Finished, parent, req, map[string]any{"key": st.Key, "origin": st.Origin})
		tr.span("job.queue", st.Created, st.Started, jid, req, nil)
		rid := tr.span("job.run", st.Started, st.Finished, jid, req, nil)
		for _, c := range mine {
			tr.span("crowd.collect", c.start, c.end, rid, req, map[string]any{"questions": c.questions})
		}
	}
	e.p.m["jobs.queue_wait_ms_p50"] = median(wait)
	e.p.m["jobs.run_ms_p50"] = median(run)
	e.p.m["expand.model_fill_ms_p50"] = median(fill)
	return nil
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

package core

import (
	"strings"
	"time"

	"crowddb/internal/engine"
	"crowddb/internal/sqlparse"
	"crowddb/internal/workload"
	rescache "crowddb/internal/workload/cache"
)

// Workload-aware serving layer: every SELECT feeds the workload tracker
// (the co-access model behind predictive pre-expansion) and, unless
// bypassed, the semantic result cache. The pieces live in
// internal/workload; this file is the glue that decides WHEN they fire —
// observation under the snapshot gate, speculation inside the open
// coalescer window, cache seq-capture before execution. See DESIGN.md §13.

// Origin values for expansion jobs. The tag rides the job (jobs.Status),
// the per-job WAL completion record, and /ledger, so operators can audit
// how much of the crowd spend was speculative.
const (
	// OriginDemand marks an expansion a user query was blocked on — a
	// missing-column miss, an explicit EXPAND, or a programmatic
	// SubmitExpand without an explicit origin.
	OriginDemand = "demand"
	// OriginSpeculative marks a pre-expansion submitted by the workload
	// predictor. Best effort by contract: capped by SpeculativeBudget,
	// admission-bounded, never joined-on by a blocked query at submission.
	OriginSpeculative = "speculative"
	// OriginAdmin marks an expansion submitted via POST /admin/expand.
	OriginAdmin = "admin"
)

// SpeculativeBudgetKey is the API key all speculative expansions spend
// under. Routing the spend through one well-known key reuses the entire
// per-key budget machinery from PR 4 — the two-phase reservation inside
// the batch runner is the authoritative cap check, so a speculative
// member that would blow Options.SpeculativeBudget is rejected at
// reservation time and costs nothing.
const SpeculativeBudgetKey = "__speculative__"

// maxSpeculations bounds how many predicted columns one demand expansion
// chases. Two is deliberate: the pairwise model's precision decays fast
// past the top candidates, and every speculative member occupies batch
// admission headroom demand work may want.
const maxSpeculations = 2

// observeLocked records one workload event and journals it as a typed
// workload_obs record. Caller holds db.gate.RLock (the execEngine
// path), so the record lands atomically with respect to Snapshot.
func (db *DB) observeLocked(obs workload.Observation) {
	if db.tracker == nil {
		return
	}
	db.tracker.Observe(obs)
	if db.wal != nil {
		_, _ = db.wal.Append(recWorkload, obs)
	}
}

// observe is observeLocked for callers not holding the snapshot gate
// (the expansion submission paths).
func (db *DB) observe(obs workload.Observation) {
	db.gate.RLock()
	defer db.gate.RUnlock()
	db.observeLocked(obs)
}

// RecordObservation feeds one workload event into the tracker (and the
// WAL), exactly as a live query would. It exists to warm the co-access
// model from an external query log before the predictor has seen live
// traffic; table and column names are normalized internally.
func (db *DB) RecordObservation(obs workload.Observation) {
	db.observe(obs)
}

// WorkloadStats is the GET /workload payload: durable counters, the
// recent in-memory trace, cache effectiveness, and the speculative
// budget account.
type WorkloadStats struct {
	Counters workload.CounterState  `json:"counters"`
	Recent   []workload.Observation `json:"recent,omitempty"`
	Cache    *rescache.Stats        `json:"cache,omitempty"`
	// SpeculativeBudget is the __speculative__ key's account (nil when no
	// speculative cap is configured and nothing was ever spent).
	SpeculativeBudget *BudgetStatus `json:"speculative_budget,omitempty"`
}

// Workload returns the current workload-subsystem state.
func (db *DB) Workload() WorkloadStats {
	st := WorkloadStats{}
	if db.tracker != nil {
		st.Counters = db.tracker.Export()
		st.Recent = db.tracker.Recent()
	}
	if db.rcache != nil {
		s := db.rcache.Stats()
		st.Cache = &s
	}
	if b, ok := db.Budget(SpeculativeBudgetKey); ok {
		st.SpeculativeBudget = &b
	}
	return st
}

// CacheStats returns the result cache's counters (zero Stats when the
// cache is disabled).
func (db *DB) CacheStats() rescache.Stats {
	if db.rcache == nil {
		return rescache.Stats{}
	}
	return db.rcache.Stats()
}

// execSelectStmt is the cached SELECT path. Caller holds db.gate.RLock.
//
// Order matters: the table-seq snapshot is taken BEFORE execution, so a
// mutation landing mid-query bumps the live seq past the snapshot and
// the entry — stored against the snapshot — can never be served (the
// cache validates seqs on every Get). Plan errors propagate untouched so
// a MissingColumnError still reaches the expansion machinery.
//
// Every phase feeds the crowddb_query_phase_seconds histogram; a non-nil
// qt additionally runs the executor with per-operator tracing and fills
// in the QueryTrace.
func (db *DB) execSelectStmt(sel *sqlparse.SelectStmt, nocache bool, qt *QueryTrace) (*Result, error) {
	planStart := time.Now()
	p, err := db.engine.PlanSelect(sel)
	planDur := time.Since(planStart)
	mQueryPhase.With("plan").Observe(planDur.Seconds())
	if qt != nil {
		qt.PlanUS += planDur.Microseconds()
	}
	if err != nil {
		return nil, err
	}
	for _, obs := range accessObservations(sel) {
		db.observeLocked(obs)
	}
	// run executes the plan, traced iff qt is set, and accounts the
	// execute phase either way.
	run := func() (*Result, error) {
		execStart := time.Now()
		var res *Result
		var rerr error
		if qt != nil {
			res2, tr, terr := engine.ExecPlanTraced(p)
			res, rerr = res2, terr
			if terr == nil {
				qt.Plan = p.ExplainWith(tr.Annotate)
			}
		} else {
			res, rerr = engine.ExecPlan(p)
		}
		execDur := time.Since(execStart)
		mQueryPhase.With("execute").Observe(execDur.Seconds())
		if qt != nil {
			qt.ExecUS += execDur.Microseconds()
		}
		return res, rerr
	}
	if db.rcache == nil {
		return run()
	}
	fp := p.Fingerprint()
	if !nocache {
		cacheStart := time.Now()
		cols, rows, ok := db.rcache.Get(fp)
		cacheDur := time.Since(cacheStart)
		mQueryPhase.With("cache_lookup").Observe(cacheDur.Seconds())
		if qt != nil {
			qt.CacheUS += cacheDur.Microseconds()
		}
		if ok {
			mCacheHits.Inc()
			if qt != nil {
				// Served from cache: nothing executed, so the plan tree
				// carries no actuals.
				qt.CacheHit = true
				qt.Plan = p.Explain()
			}
			return &Result{Columns: cols, Rows: rows, Affected: len(rows)}, nil
		}
		mCacheMisses.Inc()
	}
	snap := db.rcache.TableSeqs(p.Tables())
	res, err := run()
	if err != nil {
		return nil, err
	}
	if !nocache {
		db.rcache.Put(fp, snap, res.Columns, res.Rows)
	}
	return res, nil
}

// accessObservations derives per-table workload observations from a
// plannable SELECT: each base table in scope gets one observation
// carrying the columns the query references on it. Qualified references
// resolve through the statement's alias bindings; unqualified ones are
// attributed to the primary FROM table (the planner resolved them
// successfully, and single-table queries — the workload the predictor
// targets — have no ambiguity).
func accessObservations(sel *sqlparse.SelectStmt) []workload.Observation {
	primary := strings.ToLower(sel.Table)
	bindings := map[string]string{}
	alias := sel.TableAlias
	if alias == "" {
		alias = sel.Table
	}
	bindings[strings.ToLower(alias)] = primary
	colsByTable := map[string][]string{primary: nil}
	for _, j := range sel.Joins {
		a := j.Alias
		if a == "" {
			a = j.Table
		}
		bindings[strings.ToLower(a)] = strings.ToLower(j.Table)
		colsByTable[strings.ToLower(j.Table)] = nil
	}
	add := func(c *sqlparse.ColumnRef) {
		table := primary
		if c.Table != "" {
			t, ok := bindings[strings.ToLower(c.Table)]
			if !ok {
				return
			}
			table = t
		}
		colsByTable[table] = append(colsByTable[table], c.Name)
	}
	for _, it := range sel.Items {
		sqlparse.WalkColumns(it.Expr, add)
	}
	for _, j := range sel.Joins {
		sqlparse.WalkColumns(j.On, add)
	}
	sqlparse.WalkColumns(sel.Where, add)
	for _, g := range sel.GroupBy {
		sqlparse.WalkColumns(g, add)
	}
	sqlparse.WalkColumns(sel.Having, add)
	for _, o := range sel.OrderBy {
		sqlparse.WalkColumns(o.Expr, add)
	}
	out := make([]workload.Observation, 0, len(colsByTable))
	for table, cols := range colsByTable {
		out = append(out, workload.Observation{Table: table, Columns: cols, Kind: workload.KindAccess})
	}
	return out
}

// speculate submits pre-expansions for the columns the workload model
// predicts will be demanded next, given that table.trigger was just
// demand-expanded. Called synchronously from submitExpansion right after
// the demand member was admitted, while the coalescer's batch window for
// the table is still open — so speculative and demand members seal into
// ONE batch and their sampling phases merge into shared HIT groups,
// charged once (see runExpansionBatch).
//
// Strictly best effort, in this order: speculation requires batching and
// a positive speculative budget; it stops when pending members reach
// half the admission bound (never starving demand submissions into
// ErrQueueFull); it skips columns already filled or not registered; and
// it pre-flights the projected cost against SpeculativeBudget, with the
// batch runner's per-member reservation as the authoritative check.
func (db *DB) speculate(table, trigger string) {
	if db.coalescer == nil || db.specBudget <= 0 || db.tracker == nil {
		return
	}
	for _, pred := range db.tracker.Predict(table, trigger, maxSpeculations) {
		if db.coalescer.Pending()*2 >= db.coalescer.Depth() {
			return
		}
		spec, ok := db.expandableSpec(table, pred.Column)
		if !ok || db.columnFilled(table, pred.Column) {
			continue
		}
		opts := spec.opts
		opts.Origin = OriginSpeculative
		opts.APIKey = SpeculativeBudgetKey
		if !db.speculationAffordable(table, pred.Column, opts) {
			continue
		}
		// implicit=true: if a racing job fills the column first, the
		// speculative run degrades to a no-op instead of re-eliciting.
		_, _, _ = db.submitExpansion(table, pred.Column, spec.kind, opts, true)
	}
}

// speculationAffordable pre-flights a speculative expansion's projected
// sampling cost against the speculative budget — the same best-effort
// shape as SubmitExpand's check: a plan that cannot be built yet defers
// entirely to the batch runner's authoritative per-member reservation.
func (db *DB) speculationAffordable(table, column string, opts ExpandOptions) bool {
	tbl, ok := db.Catalog().Get(table)
	if !ok {
		return false
	}
	pre := opts
	defaultMethod := sqlparse.ExpandCrowd
	if db.binding(table) != nil {
		defaultMethod = sqlparse.ExpandSpace
	}
	pre.fillDefaults(defaultMethod)
	if pre.Method == sqlparse.ExpandHybrid {
		pre.Method = sqlparse.ExpandCrowd // estimate HYBRID by its first round
	}
	if e, err := db.planElicitation(tbl, column, pre); err == nil {
		if err := db.checkBudget(pre.APIKey, e.projected()); err != nil {
			return false
		}
	}
	return true
}

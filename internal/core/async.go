package core

import (
	"errors"
	"fmt"
	"strings"

	"crowddb/internal/crowd"
	"crowddb/internal/engine"
	"crowddb/internal/jobs"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
	"crowddb/internal/workload"
)

// ErrExpansionFailed marks errors from an expansion job's execution (as
// opposed to rejection at submission or plain query errors); the HTTP
// layer maps it to a 5xx status.
var ErrExpansionFailed = errors.New("core: expansion failed")

// ErrExpansionInFlight marks an explicit expansion rejected because the
// same column's expansion is already queued or running (HTTP 409: the
// statement's own options would be discarded by a silent join).
var ErrExpansionInFlight = errors.New("core: expansion already in flight")

// ErrNoSuchTable marks a request against an unknown table (HTTP 404).
var ErrNoSuchTable = errors.New("core: no such table")

// Expansion scheduler sizing. Crowd jobs spend their time waiting on
// (simulated) humans, not on CPU, so a small pool is plenty; the queue is
// deep enough that a burst of distinct expandable columns does not bounce.
const (
	defaultExpansionWorkers = 4
	defaultExpansionQueue   = 64
)

// Jobs returns status snapshots of every expansion job ever submitted, in
// submission order.
func (db *DB) Jobs() []jobs.Status { return db.sched.Jobs() }

// Job returns the status of one expansion job by ID.
func (db *DB) Job(id string) (jobs.Status, bool) {
	j, ok := db.sched.Get(id)
	if !ok {
		return jobs.Status{}, false
	}
	return j.Status(), true
}

// JobHandle returns the live job handle for Wait/Done composition.
func (db *DB) JobHandle(id string) (*jobs.Job, bool) { return db.sched.Get(id) }

// ExecSQLAsync parses and executes one statement without ever blocking on
// the crowd. Three outcomes:
//
//   - the statement needs no expansion: result is non-nil, job is nil;
//   - the statement triggers (or joins) an expansion: result is nil and
//     job is the handle to poll or Wait on — re-issue the query once the
//     job is done;
//   - anything else is an error.
//
// This is the serving-path API: an HTTP frontend returns 202 + job ID
// instead of holding a connection open for crowd minutes.
func (db *DB) ExecSQLAsync(sql string) (*Result, *jobs.Job, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	return db.ExecAsync(stmt)
}

// ExecAsync executes a parsed statement (see ExecSQLAsync).
func (db *DB) ExecAsync(stmt sqlparse.Statement) (*Result, *jobs.Job, error) {
	if ex, ok := stmt.(*sqlparse.ExpandStmt); ok {
		job, err := db.submitExpandStmt(ex)
		if err != nil {
			return nil, nil, err
		}
		return nil, job, nil
	}
	res, err := db.execEngine(stmt, false, nil)
	if err == nil {
		return res, nil, nil
	}
	// EXPLAIN never triggers an expansion (see Exec).
	if _, isExplain := stmt.(*sqlparse.ExplainStmt); isExplain {
		return nil, nil, err
	}
	job, expErr := db.submitMissingColumn(err)
	if expErr != nil {
		return nil, nil, expErr
	}
	if job == nil {
		return nil, nil, err
	}
	return nil, job, nil
}

// expansionKey is the singleflight identity of an expansion.
func expansionKey(table, column string) string {
	return strings.ToLower(table) + "." + strings.ToLower(column)
}

// submitExpansion schedules (or joins) the expansion of table.column.
// When implicit is true the job is a query-driven expansion and skips the
// crowd run if a completed job already filled the column — closing the
// race where a query observed the column as missing, lost the CPU, and
// resubmitted after the original job finished. Explicit EXPAND statements
// pass implicit=false: re-expanding an existing column re-elicits it by
// design.
//
// With batching enabled (Options.BatchWindow), the expansion routes
// through the coalescer instead of straight onto the worker pool:
// expansions of the same table submitted within one window merge their
// sampling phases into shared HIT groups (see batch.go). Singleflight
// semantics are identical on both paths.
func (db *DB) submitExpansion(table, column string, kind storage.Kind, opts ExpandOptions, implicit bool) (*jobs.Job, bool, error) {
	if opts.Origin == "" {
		opts.Origin = OriginDemand
	}
	var job *jobs.Job
	var created bool
	var err error
	if db.coalescer != nil {
		job, created, err = db.coalescer.Submit(batchGroupKey(table), expansionKey(table, column), expansionWork{
			table: table, column: column, kind: kind, opts: opts, implicit: implicit,
		})
	} else {
		job, created, err = db.sched.Submit(expansionKey(table, column), func(ctl *jobs.Ctl) (any, error) {
			if implicit && db.columnFilled(table, column) {
				return nil, nil
			}
			runOpts := opts
			runOpts.onPhase = ctl.Phase
			runOpts.onCharge = func(res *crowd.RunResult) {
				ctl.Charge(len(res.Records), res.TotalCost, res.DurationMinutes)
			}
			report, err := db.Expand(table, column, kind, runOpts)
			if err != nil {
				return nil, fmt.Errorf("%w: %s.%s: %w", ErrExpansionFailed, table, column, err)
			}
			return report, nil
		})
	}
	if err != nil || !created {
		return job, created, err
	}
	job.SetOrigin(opts.Origin)
	db.observe(workload.Observation{Table: table, Columns: []string{column}, Kind: workload.KindExpand})
	// A freshly admitted demand expansion is the predictor's trigger:
	// speculate NOW, while the table's batch window is still open, so
	// speculative members merge into the demand member's HIT group. The
	// origin guard stops speculation from cascading off itself (and off
	// admin pre-warms, which carry no "a user will query next" signal).
	if opts.Origin == OriginDemand {
		db.speculate(table, column)
	}
	return job, created, nil
}

// submitExpandStmt schedules an explicit EXPAND statement. An expansion
// of the same column already in flight is an error rather than a silent
// join: the statement's own BUDGET/SAMPLES options would be discarded,
// and "re-elicit" semantics demand a fresh run — retry once the current
// job finishes.
func (db *DB) submitExpandStmt(ex *sqlparse.ExpandStmt) (*jobs.Job, error) {
	col, err := engine.ColumnDefToStorage(ex.Column, storage.ColumnExpanded)
	if err != nil {
		return nil, err
	}
	opts := ExpandOptions{Method: ex.Method, Budget: ex.Budget}
	if ex.Samples > 0 {
		opts.SamplesPerClass = int(ex.Samples)
	}
	job, created, err := db.submitExpansion(ex.Table, ex.Column.Name, col.Kind, opts, false)
	if err != nil {
		return nil, err
	}
	if !created {
		return nil, fmt.Errorf("%w: %s.%s (%s); retry after it completes",
			ErrExpansionInFlight, ex.Table, ex.Column.Name, job.ID())
	}
	return job, nil
}

// SubmitExpand schedules an explicit expansion programmatically — the
// POST /admin/expand path: pre-warm a column before queries need it,
// attributed to an API key whose budget cap is checked up front. The
// projected sampling cost is reserved against opts.APIKey at submission
// (ErrBudgetExceeded maps to 402 at the HTTP layer); the job re-checks
// authoritatively before issuing HITs. Like EXPAND statements, a same-
// column expansion already in flight is an error, not a silent join.
func (db *DB) SubmitExpand(table, column string, kind storage.Kind, opts ExpandOptions) (*jobs.Job, error) {
	tbl, ok := db.Catalog().Get(table)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, table)
	}
	// Pre-flight budget check on a submission-time plan. Best-effort: a
	// plan that cannot be built yet (HYBRID's two rounds, missing space)
	// defers entirely to the run-time check inside the job.
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
			return nil, err
		}
	}
	job, created, err := db.submitExpansion(table, column, kind, opts, false)
	if err != nil {
		return nil, err
	}
	if !created {
		return nil, fmt.Errorf("%w: %s.%s (%s); retry after it completes",
			ErrExpansionInFlight, table, column, job.ID())
	}
	return job, nil
}

// columnFilled reports whether table.column exists and holds at least one
// non-NULL value — the signature of an expansion that already ran.
func (db *DB) columnFilled(table, column string) bool {
	tbl, ok := db.Catalog().Get(table)
	if !ok {
		return false
	}
	colIdx, ok := tbl.Schema().Lookup(column)
	if !ok {
		return false
	}
	filled := false
	tbl.Scan(func(i int, row storage.Row) bool {
		if !row[colIdx].IsNull() {
			filled = true
			return false
		}
		return true
	})
	return filled
}

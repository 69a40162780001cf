package main

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crowddb/internal/core"
	"crowddb/internal/storage"
)

// writeMix — durable writes beside reads.
//
// Why: the same storage, index and snapshot gate serve writes next to
// reads. This exposes per-cell chunk copies on UPDATE, WAL growth, and
// the snapshot convoy (a snapshot holds the gate while it captures). The
// executor and the cache do little.
//
// Sizes: a 100k-row acct table with a hash index on id, far below any
// cache or memory limit; the point is write cost, not working set.
//
// Load: 2 closed-loop clients. Each draws, from its own seeded stream,
// 20-row INSERTs (weight 2), 100-row range UPDATEs SET v = v + 1
// (weight 2), point UPDATEs by id (weight 4), 5-row range DELETEs of
// rows it inserted itself (weight 1) and point SELECTs (weight 8).
// Client 0 also POSTs /v1/admin/snapshot and then /v1/admin/compact once
// in each half of the window, at its first operation after the half's
// middle. A fixed count per run keeps the snapshot convoy (about half a
// second per snapshot here, every client blocked) the same share of
// every run.
//
// Flush policy: durable with a data dir under .bench_build, fsync off
// (crowdserve's default): every write reaches the OS before it is
// acknowledged, not the platter.
//
// Checks: every DML statement's affected-row count, every point read
// (the row exists and v never exceeds the increments issued for it), and
// after the window the table's row count against the acknowledged
// inserts and deletes, then the same count and sum(v) after Close and
// reopen — acknowledged writes survive restart.
//
// storage.lost_updates is the acknowledged increments minus the observed
// sum(v). Concurrent read-modify-write UPDATEs can lose increments, so it
// may be nonzero; it is reported, not counted in failed, because its
// value depends on thread timing. The key mix and client count are not
// shaped to hide it.
type writeMix struct {
	n     int
	dir   string
	size0 int64
	// issued counts increments sent per initial row (upper bound for v).
	issued []atomic.Int64

	ackedInc  atomic.Int64
	inserted  atomic.Int64
	deleted   atomic.Int64
	userBytes atomic.Int64
	rows      atomic.Int64
	updNs     atomic.Int64
	updRows   atomic.Int64
}

const noteText = "acct-note"

func (w *writeMix) setup(p *phase) (*env, error) {
	rng := rand.New(rand.NewSource(p.cfg.seed))
	w.n = p.scaled(100_000)
	w.issued = make([]atomic.Int64, w.n)
	tmp := filepath.Join(p.cfg.outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "write_mix-")
	if err != nil {
		return nil, err
	}
	w.dir = dir
	opts := crowdserveDefaults()
	opts.DataDir = dir
	e, err := p.serve(opts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e.cleanup = append(e.cleanup, func() { os.RemoveAll(dir) })
	if _, _, err := e.db.ExecSQL(`CREATE TABLE acct (id INTEGER, grp INTEGER, v INTEGER, note TEXT)`); err != nil {
		e.close()
		return nil, err
	}
	tbl, _ := e.db.Catalog().Get("acct")
	start := time.Now()
	for i := 0; i < w.n; i++ {
		if err := tbl.Insert(storage.Int(int64(i)), storage.Int(int64(rng.Intn(100))), storage.Int(0), storage.Text(noteText)); err != nil {
			e.close()
			return nil, err
		}
	}
	p.insertSpan(start, time.Now(), "acct", w.n)
	if _, _, err := e.db.ExecSQL(`CREATE INDEX acct_id ON acct (id) USING HASH`); err != nil {
		e.close()
		return nil, err
	}
	if _, err := e.db.Snapshot(); err != nil {
		e.close()
		return nil, err
	}
	if w.size0, err = dirBytes(dir, ""); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// rowBytes is the user payload of one inserted row: 8 bytes per integer
// plus the note text. An UPDATE writes 8 bytes (v) per affected row and
// a DELETE 8 bytes (the row's id).
var rowBytes = int64(3*8 + len(noteText))

func (w *writeMix) run(e *env, deadline time.Time) error {
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		cl := e.newClient(fmt.Sprintf("c%d", c))
		rng := rand.New(rand.NewSource(e.p.cfg.seed*7919 + int64(c)))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer e.p.merge(cl.rec)
			nextID := int64(10_000_000 * (c + 1))
			delFrom := nextID
			half := deadline.Sub(start) / 2
			nextAdmin := start.Add(half / 2)
			for time.Now().Before(deadline) {
				if c == 0 && !time.Now().Before(nextAdmin) {
					nextAdmin = nextAdmin.Add(half)
					d, err := cl.post("snapshot", "/v1/admin/snapshot")
					if err == nil {
						cl.rec.add("snapshot", d)
						d, err = cl.post("compact", "/v1/admin/compact")
					}
					if err == nil {
						cl.rec.add("compact", d)
					}
					e.p.check(err)
					continue
				}
				op := rng.Intn(17)
				if op == 4 && delFrom+5 > nextID {
					op = 0 // nothing of ours left to delete: insert instead
				}
				switch {
				case op < 2:
					vals := make([]string, 20)
					for k := range vals {
						vals[k] = fmt.Sprintf("(%d, %d, 0, '%s')", nextID+int64(k), rng.Intn(100), noteText)
					}
					err := w.dml(e, cl, "insert", "INSERT INTO acct VALUES "+strings.Join(vals, ", "), 20, rowBytes)
					if err == nil {
						nextID += 20
						w.inserted.Add(20)
					}
					e.p.check(err)
				case op < 4:
					a := rng.Intn(w.n - 100)
					for k := a; k < a+100; k++ {
						w.issued[k].Add(1)
					}
					e.p.check(w.dml(e, cl, "update", fmt.Sprintf("UPDATE acct SET v = v + 1 WHERE id >= %d AND id < %d", a, a+100), 100, 8))
				case op == 4:
					err := w.dml(e, cl, "delete", fmt.Sprintf("DELETE FROM acct WHERE id >= %d AND id < %d", delFrom, delFrom+5), 5, 8)
					if err == nil {
						delFrom += 5
						w.deleted.Add(5)
					}
					e.p.check(err)
				case op < 9:
					k := rng.Intn(w.n)
					w.issued[k].Add(1)
					e.p.check(w.dml(e, cl, "update", fmt.Sprintf("UPDATE acct SET v = v + 1 WHERE id = %d", k), 1, 8))
				default:
					k := rng.Intn(w.n)
					rep, d, err := cl.query("read", fmt.Sprintf("SELECT id, v FROM acct WHERE id = %d", k))
					if err == nil {
						cl.rec.add("read", d)
						err = w.checkRead(k, rep)
					}
					e.p.check(err)
				}
			}
		}(c)
	}
	wg.Wait()
	secs := time.Since(start).Seconds()
	p := e.p
	p.m["write_p50_ms"] = p.p50("write")
	p.m["write_tail_ms"] = p.tailOf("write_tail_ms", "write")
	p.m["write_rows_per_s"] = float64(w.rows.Load()) / secs
	if n := w.updRows.Load(); n > 0 {
		p.m["storage.update_us_per_row"] = float64(w.updNs.Load()) / 1e3 / float64(n)
	}
	p.m["storage.compact_ms_p50"] = p.p50("compact")
	p.m["wal.snapshot_ms_p50"] = p.p50("snapshot")
	return nil
}

// dml runs one INSERT, UPDATE or DELETE that must affect exactly want
// rows, and accounts it.
func (w *writeMix) dml(e *env, cl *client, class, sql string, want int, bytesPerRow int64) error {
	rep, d, err := cl.query(class, sql)
	if err != nil {
		return err
	}
	if rep.Affected != want {
		return fmt.Errorf("%s: affected %d rows, want %d", abbrev(sql), rep.Affected, want)
	}
	cl.rec.add("write", d)
	w.rows.Add(int64(want))
	w.userBytes.Add(int64(want) * bytesPerRow)
	if class == "update" {
		w.ackedInc.Add(int64(want))
		w.updNs.Add(d.Nanoseconds())
		w.updRows.Add(int64(want))
	}
	return nil
}

func (w *writeMix) checkRead(k int, rep *reply) error {
	if len(rep.Rows) != 1 {
		return fmt.Errorf("point read id %d: %d rows", k, len(rep.Rows))
	}
	id, _ := asInt(rep.Rows[0][0])
	v, ok := asInt(rep.Rows[0][1])
	if id != int64(k) || !ok || v < 0 || v > w.issued[k].Load() {
		return fmt.Errorf("point read id %d: row %v, %d increments issued", k, rep.Rows[0], w.issued[k].Load())
	}
	return nil
}

// verify checks the table against the acknowledged writes, measures WAL
// growth, then closes the database, times the reopen and checks that
// the recovered table is the one that was closed.
func (w *writeMix) verify(e *env) error {
	cl := e.newClient("verify")
	count, sum, err := w.countSum(func(sql string) (*reply, error) {
		rep, _, err := cl.query("verify", sql)
		return rep, err
	})
	if err != nil {
		return err
	}
	wantCount := int64(w.n) + w.inserted.Load() - w.deleted.Load()
	var cerr error
	if count != wantCount {
		cerr = fmt.Errorf("acct has %d rows, acknowledged writes leave %d", count, wantCount)
	} else if sum > w.ackedInc.Load() {
		cerr = fmt.Errorf("sum(v) = %d exceeds the %d acknowledged increments", sum, w.ackedInc.Load())
	}
	e.p.check(cerr)
	e.p.m["storage.lost_updates"] = float64(w.ackedInc.Load() - sum)

	var schema struct {
		Chunks     int `json:"chunks"`
		Tombstones int `json:"tombstones"`
	}
	if err := cl.get("/v1/schema/acct", &schema); err != nil {
		return err
	}
	e.p.m["storage.chunks"] = float64(schema.Chunks)
	e.p.m["storage.tombstones"] = float64(schema.Tombstones)
	size, err := dirBytes(w.dir, "")
	if err != nil {
		return err
	}
	if ub := w.userBytes.Load(); ub > 0 {
		e.p.m["wal.bytes_per_user_byte"] = float64(size-w.size0) / float64(ub)
	}

	if err := e.stop(); err != nil {
		return err
	}
	logBytes, err := dirBytes(w.dir, ".log")
	if err != nil {
		return err
	}
	e.p.m["wal.log_bytes_at_close"] = float64(logBytes)
	t0 := time.Now()
	db, err := core.Open(e.opts)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	e.p.m["recover_s"] = time.Since(t0).Seconds()
	count2, sum2, err := w.countSum(func(sql string) (*reply, error) {
		res, _, err := db.ExecSQL(sql)
		if err != nil {
			return nil, err
		}
		rep := &reply{}
		for _, r := range res.Rows {
			row := make([]any, len(r))
			for j, v := range r {
				if n, ok := v.AsInt(); ok {
					row[j] = float64(n)
				} else if f, ok := v.AsFloat(); ok {
					row[j] = f
				}
			}
			rep.Rows = append(rep.Rows, row)
		}
		return rep, nil
	})
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	var rerr error
	if count2 != count || sum2 != sum {
		rerr = fmt.Errorf("recovered acct has count %d sum(v) %d, closed with %d and %d", count2, sum2, count, sum)
	}
	e.p.check(rerr)
	return nil
}

func (w *writeMix) countSum(q func(string) (*reply, error)) (count, sum int64, err error) {
	rep, err := q("SELECT COUNT(*), SUM(v) FROM acct")
	if err != nil {
		return 0, 0, err
	}
	if len(rep.Rows) != 1 || len(rep.Rows[0]) != 2 {
		return 0, 0, fmt.Errorf("count/sum: unexpected answer %v", rep.Rows)
	}
	count, _ = asInt(rep.Rows[0][0])
	sum, _ = asInt(rep.Rows[0][1])
	return count, sum, nil
}

// dirBytes totals the sizes of the regular files under dir whose names
// end in suffix ("" for all).
func dirBytes(dir, suffix string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() && strings.HasSuffix(d.Name(), suffix) {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

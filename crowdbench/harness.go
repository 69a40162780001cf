package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crowddb/internal/core"
	"crowddb/internal/server"
)

// workload is one traffic mix. A fresh value serves one set-up: setup
// builds and serves the database from the seed, run drives the clients
// until the deadline, and verify checks the final state outside the
// measured window.
type workload interface {
	setup(p *phase) (*env, error)
	run(e *env, deadline time.Time) error
	verify(e *env) error
}

// readFigurer is implemented by a workload whose pooled read figures
// are unsteady: its reads fall into kinds of very different cost, so a
// median over all of them sits between two kinds and jumps with their
// balance. Such a workload computes read_p50_ms and read_qps itself
// (each says how); ok is false when it has too few samples, and the
// pooled figures stand.
type readFigurer interface {
	readFigures(p *phase) (p50ms, qps float64, ok bool)
}

var workloads = map[string]func() workload{
	"serve_point": func() workload { return &servePoint{} },
	"analytic":    func() workload { return &analytic{} },
	"write_mix":   func() workload { return &writeMix{} },
	"expand":      func() workload { return &expandWL{} },
}

// crowdserveDefaults is the configuration crowdserve ships with: 64 MiB
// result cache, ExecWorkers 0 (GOMAXPROCS), mem backend, fsync off,
// 25 ms batch window, 4 expansion workers over a 64-deep queue, request
// logs on. DataDir and Service are filled in per workload.
func crowdserveDefaults() core.Options {
	return core.Options{
		Backend:     "mem",
		Workers:     4,
		QueueDepth:  64,
		BatchWindow: 25 * time.Millisecond,
	}
}

// phase is one pass over a workload: untraced, or traced when tr is set.
type phase struct {
	cfg runConfig
	tr  *tracer
	// m holds the metrics this pass measured, by catalog name.
	m map[string]float64

	att, fail atomic.Int64
	mu        sync.Mutex
	failMsgs  []string
	lat       map[string][]float64
	// tails records which percentile each tail figure used.
	tails map[string]float64

	// insNs and insRows total the set-up's Table.Insert loops.
	insNs   time.Duration
	insRows int
}

func newPhase(cfg runConfig, tr *tracer) *phase {
	return &phase{cfg: cfg, tr: tr, m: map[string]float64{}, lat: map[string][]float64{}, tails: map[string]float64{}}
}

func (p *phase) attempted() int64 { return p.att.Load() }
func (p *phase) failed() int64    { return p.fail.Load() }

// check counts one attempted operation; a non-nil err marks it failed
// or incorrect.
func (p *phase) check(err error) {
	p.att.Add(1)
	if err == nil {
		return
	}
	p.fail.Add(1)
	p.mu.Lock()
	if len(p.failMsgs) < 20 {
		p.failMsgs = append(p.failMsgs, err.Error())
	}
	p.mu.Unlock()
}

// merge folds one client's latency samples into the pass.
func (p *phase) merge(r recorder) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, v := range r {
		p.lat[k] = append(p.lat[k], v...)
	}
}

// p50 and tailOf read merged samples; tailOf also records the percentile
// used for the summary.
func (p *phase) p50(kind string) float64 { return median(p.lat[kind]) }

func (p *phase) tailOf(name, kind string) float64 {
	v, q := tail(p.lat[kind])
	p.tails[name] = q
	return v
}

// insertSpan accounts one set-up Table.Insert loop: it feeds
// storage.insert_us_per_row and, under tracing, becomes a span.
func (p *phase) insertSpan(start, end time.Time, table string, rows int) {
	p.insNs += end.Sub(start)
	p.insRows += rows
	p.m["storage.insert_us_per_row"] = us(p.insNs) / float64(p.insRows)
	if p.tr != nil {
		p.tr.span("storage.insert", start, end, 0, "setup", map[string]any{"table": table, "rows": rows})
	}
}

// recorder is one client's samples by kind; durations are in
// milliseconds.
type recorder map[string][]float64

func (r recorder) add(kind string, d time.Duration) {
	r[kind] = append(r[kind], float64(d.Nanoseconds())/1e6)
}

// val records a sample that is not a duration (bytes, ratios).
func (r recorder) val(kind string, v float64) { r[kind] = append(r[kind], v) }

// runPhase builds the workload's database (setupRuns times untraced,
// once traced), measures the window, then checks the results.
func runPhase(cfg runConfig, tr *tracer) (*phase, error) {
	p := newPhase(cfg, tr)
	n := setupRuns
	if tr != nil {
		n = 1
	}
	var (
		w      workload
		e      *env
		setups []float64
	)
	for i := 0; i < n; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		w = workloads[cfg.workload]()
		t0 := time.Now()
		var err error
		if e, err = w.setup(p); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()
	p.m["setup_s"] = median(setups)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cache0 := e.db.CacheStats()
	start := time.Now()
	if err := w.run(e, start.Add(cfg.window)); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	secs := time.Since(start).Seconds()
	ops := float64(p.attempted())
	cache := e.db.CacheStats()
	if n := cache.Hits + cache.Misses - cache0.Hits - cache0.Misses; n > 0 {
		p.m["cache.hit_ratio"] = float64(cache.Hits-cache0.Hits) / float64(n)
	}
	p.m["cache.evictions"] = float64(cache.Evictions - cache0.Evictions)
	p.m["cache.invalidations"] = float64(cache.Invalidations - cache0.Invalidations)
	p.m["server.resp_bytes_p50"] = p.p50("resp_bytes")
	runtime.ReadMemStats(&after)
	// Two collections: the first moves sync.Pool caches to their victim
	// lists, the second frees them, so only live data remains.
	runtime.GC()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	p.m["heap_mb"] = float64(live.HeapAlloc) / 1e6
	if ops > 0 {
		p.m["go.alloc_mb_per_kop"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / (ops / 1000)
		p.m["go.gc_cycles_per_kop"] = float64(after.NumGC-before.NumGC) / (ops / 1000)
	}
	if len(p.lat["read"]) == 0 {
		return nil, fmt.Errorf("%s: no read completed in the window", cfg.workload)
	}
	p.m["read_p50_ms"], p.m["read_qps"] = p.p50("read"), float64(len(p.lat["read"]))/secs
	if rf, ok := w.(readFigurer); ok {
		if p50, qps, ok := rf.readFigures(p); ok {
			p.m["read_p50_ms"], p.m["read_qps"] = p50, qps
		}
	}
	p.m["read_tail_ms"] = p.tailOf("read_tail_ms", "read")
	if err := w.verify(e); err != nil {
		return nil, fmt.Errorf("%s verify: %w", cfg.workload, err)
	}
	return p, nil
}

// summary prints the human-readable report that precedes the result
// line: every measured metric with its unit, the percentile behind each
// tail figure, and the first failures.
func (p *phase) summary(cfg runConfig, m map[string]float64) {
	if cfg.quiet {
		return
	}
	fmt.Printf("crowdbench %s seed=%d window=%s trace=%v %s\n", cfg.workload, cfg.seed, cfg.window, cfg.trace, envLine())
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if v, ok := m[d.name]; ok {
			note := ""
			if q, ok := p.tails[d.name]; ok {
				note = fmt.Sprintf(" (p%g)", q)
			}
			fmt.Printf("  %-34s %14.4f %s%s\n", d.name, v, d.unit, note)
		}
	}
	fmt.Printf("  samples: %s\n", p.sampleSummary())
	fmt.Printf("  attempted=%d failed=%d failed_share=%g\n", p.attempted(), p.failed(), p.failedShare())
	for _, msg := range p.failMsgs {
		fmt.Printf("  FAIL %s\n", msg)
	}
}

func (p *phase) failedShare() float64 {
	if p.attempted() == 0 {
		return 0
	}
	return float64(p.failed()) / float64(p.attempted())
}

// sampleSummary lists every sample kind with its count and median.
func (p *phase) sampleSummary() string {
	kinds := make([]string, 0, len(p.lat))
	for k := range p.lat {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%s=%d(p50 %.4g)", k, len(p.lat[k]), median(p.lat[k]))
	}
	return strings.Join(parts, " ")
}

// envLine identifies the machine and build a run measured.
func envLine() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				commit = kv.Value
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// env is one served database.
type env struct {
	p    *phase
	db   *core.DB
	opts core.Options
	base string
	hc   *http.Client
	hs   *http.Server
	// served receives Serve's return once the listener closes.
	served chan error
	// cleanup runs after the database closes (temporary directories).
	cleanup []func()
	stopped bool
	cleaned bool
}

// requestLog is where the server's per-request slog lines go. crowdserve
// logs them to stderr; the benchmark keeps the same formatting and write
// per request but sends them to a file under .bench_build, so that a run
// does not flood the caller's terminal.
var requestLog struct {
	once sync.Once
	err  error
}

func installRequestLog(dir string) error {
	requestLog.once.Do(func() {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			requestLog.err = err
			return
		}
		f, err := os.Create(filepath.Join(dir, "requests.log"))
		if err != nil {
			requestLog.err = err
			return
		}
		slog.SetDefault(slog.New(slog.NewTextHandler(f, nil)))
	})
	return requestLog.err
}

// serve opens a database and serves it on a loopback port. Under
// tracing, the benchmark's handler wrapper records a span around
// server.Handler() for every request.
func (p *phase) serve(opts core.Options) (*env, error) {
	if err := installRequestLog(p.cfg.outDir); err != nil {
		return nil, err
	}
	db, err := core.Open(opts)
	if err != nil {
		return nil, err
	}
	srv := server.New(db, server.Config{})
	var h http.Handler = srv.Handler()
	if p.tr != nil {
		h = p.tr.wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	e := &env{
		p: p, db: db, opts: opts,
		base:   "http://" + ln.Addr().String(),
		hs:     &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 8,
			DisableCompression:  true,
		}},
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// stop closes the listener, waits for the serving goroutine, and closes
// the database. Safe to call twice.
func (e *env) stop() error {
	if e.stopped {
		return nil
	}
	e.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	e.hc.CloseIdleConnections()
	if cerr := e.db.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// close stops the env and removes what it left on disk.
func (e *env) close() error {
	err := e.stop()
	if !e.cleaned {
		e.cleaned = true
		for _, f := range e.cleanup {
			f()
		}
	}
	return err
}

// client is one closed-loop HTTP client.
type client struct {
	e    *env
	name string
	n    int
	rec  recorder
}

func (e *env) newClient(name string) *client {
	return &client{e: e, name: name, rec: recorder{}}
}

// reply is the part of a /v1/query response the checks read.
type reply struct {
	Rows      [][]any               `json:"rows"`
	Affected  int                   `json:"affected"`
	Expansion *core.ExpansionReport `json:"expansion"`
	Trace     *core.QueryTrace      `json:"trace"`
	// Error is the server's error envelope.
	Error *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// query posts one statement to /v1/query and returns the decoded reply
// and the client-observed latency. class labels the request in the
// trace. Under tracing the request asks for ?trace=1 and carries an
// X-Request-Id shared by all of its spans.
func (c *client) query(class, sql string) (*reply, time.Duration, error) {
	path := "/v1/query"
	if c.e.p.tr != nil {
		path += "?trace=1"
	}
	body, err := json.Marshal(map[string]string{"sql": sql})
	if err != nil {
		return nil, 0, err
	}
	raw, status, x, err := c.do(http.MethodPost, path, body)
	if err != nil {
		return nil, x.d(), fmt.Errorf("%s: %w", abbrev(sql), err)
	}
	rep := &reply{}
	c.rec.val("resp_bytes", float64(len(raw)))
	if err := json.Unmarshal(raw, rep); err != nil {
		return nil, x.d(), fmt.Errorf("%s: HTTP %d, undecodable body: %w", abbrev(sql), status, err)
	}
	c.traced(x, class, rep.Trace)
	if rep.Error != nil {
		return rep, x.d(), fmt.Errorf("%s: HTTP %d %s: %s", abbrev(sql), status, rep.Error.Code, rep.Error.Message)
	}
	if status != http.StatusOK {
		return rep, x.d(), fmt.Errorf("%s: HTTP %d", abbrev(sql), status)
	}
	return rep, x.d(), nil
}

// get fetches a JSON document from the server.
func (c *client) get(path string, out any) error {
	raw, status, x, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	c.traced(x, "admin", nil)
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d: %s", path, status, abbrev(string(raw)))
	}
	return json.Unmarshal(raw, out)
}

// post sends a body-less admin POST and returns its latency.
func (c *client) post(class, path string) (time.Duration, error) {
	raw, status, x, err := c.do(http.MethodPost, path, nil)
	if err != nil {
		return x.d(), fmt.Errorf("POST %s: %w", path, err)
	}
	c.traced(x, class, nil)
	if status != http.StatusOK {
		return x.d(), fmt.Errorf("POST %s: HTTP %d: %s", path, status, abbrev(string(raw)))
	}
	return x.d(), nil
}

// exchange is one request's identity and client-side timing.
type exchange struct {
	id         string
	start, end time.Time
}

func (x exchange) d() time.Duration { return x.end.Sub(x.start) }

// do sends one request and reads the whole body.
func (c *client) do(method, path string, body []byte) ([]byte, int, exchange, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	c.n++
	x := exchange{id: fmt.Sprintf("%s-%d", c.name, c.n)}
	req, err := http.NewRequest(method, c.e.base+path, rd)
	if err != nil {
		return nil, 0, x, err
	}
	req.Header.Set("X-Request-Id", x.id)
	x.start = time.Now()
	resp, err := c.e.hc.Do(req)
	if err != nil {
		x.end = time.Now()
		return nil, 0, x, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	x.end = time.Now()
	return raw, resp.StatusCode, x, err
}

// traced hands a finished request to the tracer, if any.
func (c *client) traced(x exchange, class string, qt *core.QueryTrace) {
	if tr := c.e.p.tr; tr != nil {
		tr.request(x.id, class, x.start, x.end, qt)
	}
}

func abbrev(sql string) string {
	if len(sql) > 80 {
		return sql[:80] + "…"
	}
	return sql
}

// Helpers for reading JSON-decoded cells.

func asInt(v any) (int64, bool) {
	f, ok := v.(float64)
	if !ok || f != float64(int64(f)) {
		return 0, false
	}
	return int64(f), true
}

func asFloat(v any) (float64, bool) {
	f, ok := v.(float64)
	return f, ok
}

// scaled applies the run's size scale to a full-size count.
func (p *phase) scaled(n int) int {
	s := int(float64(n) * p.cfg.scale)
	if s < 1 {
		s = 1
	}
	return s
}

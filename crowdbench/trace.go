package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"crowddb/internal/core"
)

// span is one traced interval. Spans of one request share Req; Parent is
// the ID of the span that caused this one (0 for a root).
type span struct {
	ID     int64          `json:"id"`
	Parent int64          `json:"parent,omitempty"`
	Req    string         `json:"req,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. Every span comes from
// the benchmark's own code: its clients, its handler wrapper around
// server.Handler(), its judgment-service wrapper, its set-up calls, and
// the trace surfaces the program already exposes (the QueryTrace of
// POST /v1/query?trace=1 and the job timestamps of GET /v1/jobs).
type tracer struct {
	mu      sync.Mutex
	spans   []span
	handled map[string][2]time.Time
	reqs    []tracedReq
	built   bool
}

// tracedReq is one client request as the client saw it.
type tracedReq struct {
	id, class  string
	start, end time.Time
	qt         *core.QueryTrace
}

func newTracer() *tracer { return &tracer{handled: map[string][2]time.Time{}} }

// span records one interval and returns its ID.
func (t *tracer) span(name string, start, end time.Time, parent int64, req string, attrs map[string]any) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.UnixNano(), End: end.UnixNano(), Attrs: attrs,
	})
	return id
}

// wrap times server.Handler() for every request, keyed by X-Request-Id.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		t.mu.Lock()
		t.handled[r.Header.Get("X-Request-Id")] = [2]time.Time{start, end}
		t.mu.Unlock()
	})
}

// request records a finished client request and its QueryTrace, if any.
func (t *tracer) request(id, class string, start, end time.Time, qt *core.QueryTrace) {
	t.mu.Lock()
	t.reqs = append(t.reqs, tracedReq{id: id, class: class, start: start, end: end, qt: qt})
	t.mu.Unlock()
}

// build turns the request records into client → server → core →
// parse/plan/cache_lookup/execute spans. The QueryTrace gives phase
// durations, not start times, so the core span is centred in the
// handler span and the phases are laid end to end inside it; self times
// depend only on the durations.
func (t *tracer) build() {
	if t.built {
		return
	}
	t.built = true
	for _, r := range t.reqs {
		cid := t.span("client", r.start, r.end, 0, r.id, map[string]any{"class": r.class})
		h, ok := t.handled[r.id]
		if !ok {
			continue
		}
		sid := t.span("server", h[0], h[1], cid, r.id, nil)
		if r.qt == nil {
			continue
		}
		hd := h[1].Sub(h[0])
		total := time.Duration(r.qt.TotalUS) * time.Microsecond
		if total > hd {
			total = hd
		}
		cs := h[0].Add((hd - total) / 2)
		coreID := t.span("core", cs, cs.Add(total), sid, r.id, map[string]any{"cache_hit": r.qt.CacheHit, "rows": r.qt.Rows})
		at := cs
		for _, ph := range []struct {
			name string
			us   int64
		}{{"parse", r.qt.ParseUS}, {"plan", r.qt.PlanUS}, {"cache_lookup", r.qt.CacheUS}, {"execute", r.qt.ExecUS}} {
			d := time.Duration(ph.us) * time.Microsecond
			if at.Add(d).After(cs.Add(total)) {
				d = cs.Add(total).Sub(at)
			}
			var attrs map[string]any
			if ph.name == "execute" && len(r.qt.Plan) > 0 {
				attrs = map[string]any{"plan": r.qt.Plan}
			}
			t.span(ph.name, at, at.Add(d), coreID, r.id, attrs)
			at = at.Add(d)
		}
	}
}

// find returns the ID of the first span of request req named name, or
// 0 (no parent) when there is none.
func (t *tracer) find(req, name string) int64 {
	for _, s := range t.spans {
		if s.Req == req && s.Name == name {
			return s.ID
		}
	}
	return 0
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, in nanoseconds, indexed like t.spans.
func (t *tracer) selfTimes() []int64 {
	kids := map[int64][]int{}
	for i, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(t.spans))
	for i, s := range t.spans {
		var iv [][2]int64
		for _, k := range kids[s.ID] {
			lo, hi := max(t.spans[k].Start, s.Start), min(t.spans[k].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64
		reach = s.Start
		for _, x := range iv {
			if x[1] <= reach {
				continue
			}
			covered += x[1] - max(x[0], reach)
			reach = x[1]
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// traceMetrics computes the per-layer metrics only the traced pass can
// give, plus the tracing overhead against the untraced pass.
func (p *phase) traceMetrics(plain *phase) map[string]float64 {
	t := p.tr
	t.build()
	m := map[string]float64{}
	var serverSelf, netShare, parse, plan, cache []float64
	exec := map[string][]float64{}
	var topnRatio []float64
	for _, r := range t.reqs {
		h, ok := t.handled[r.id]
		if ok {
			netShare = append(netShare, us(r.end.Sub(r.start)-h[1].Sub(h[0])))
		}
		if r.qt == nil {
			continue
		}
		if ok {
			serverSelf = append(serverSelf, us(h[1].Sub(h[0]))-float64(r.qt.TotalUS))
		}
		parse = append(parse, float64(r.qt.ParseUS))
		plan = append(plan, float64(r.qt.PlanUS))
		cache = append(cache, float64(r.qt.CacheUS))
		exec[r.class] = append(exec[r.class], float64(r.qt.ExecUS)/1000)
		if r.class == "topn" {
			if v, ok := rowsInPerRowOut(r.qt.Plan, "TopN("); ok {
				topnRatio = append(topnRatio, v)
			}
		}
	}
	m["server.self_us_p50"] = median(serverSelf)
	m["net.client_minus_handler_us_p50"] = median(netShare)
	m["sqlparse.parse_us_p50"] = median(parse)
	m["plan.plan_us_p50"] = median(plan)
	m["cache.lookup_us_p50"] = median(cache)
	for _, c := range analyticClasses {
		m["exec.execute_ms_p50."+c] = median(exec[c])
	}
	m["exec.rows_in_per_row_out.topn"] = median(topnRatio)
	if base := plain.m["read_p50_ms"]; base > 0 {
		m["trace.overhead_ratio"] = p.m["read_p50_ms"] / base
	}
	for name, xs := range t.selfByName() {
		m["self_us_p50."+name] = median(xs)
	}
	return m
}

// selfByName groups span self times (µs) by span name.
func (t *tracer) selfByName() map[string][]float64 {
	self := t.selfTimes()
	out := map[string][]float64{}
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(self[i])/1e3)
	}
	return out
}

var actualRows = regexp.MustCompile(`actual rows=(\d+)`)

// rowsInPerRowOut reads an annotated plan (EXPLAIN ANALYZE lines) and
// returns the rows the operator whose line contains op received from its
// child, per row it emitted.
func rowsInPerRowOut(plan []string, op string) (float64, bool) {
	for i, line := range plan {
		if !strings.Contains(line, op) || i+1 >= len(plan) {
			continue
		}
		out := actualRows.FindStringSubmatch(line)
		in := actualRows.FindStringSubmatch(plan[i+1])
		if out == nil || in == nil {
			return 0, false
		}
		o, _ := strconv.ParseFloat(out[1], 64)
		n, _ := strconv.ParseFloat(in[1], 64)
		if o == 0 {
			return 0, false
		}
		return n / o, true
	}
	return 0, false
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// writeTrace writes the spans as JSON lines (an environment line first)
// and prints the per-layer self-time table and the tracing overhead.
func (p *phase) writeTrace(cfg runConfig, layers map[string]float64) error {
	t := p.tr
	t.build()
	dir := filepath.Join(cfg.outDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	envRec := map[string]any{"env": map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "line": envLine(),
		"workload": cfg.workload, "seed": cfg.seed,
	}}
	if err := enc.Encode(envRec); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if cfg.quiet {
		return nil
	}

	fmt.Printf("trace %s: %d spans in %s\n", envLine(), len(t.spans), path)
	byName := t.selfByName()
	names := make([]string, 0, len(byName))
	var all float64
	totals := map[string]float64{}
	for n, xs := range byName {
		names = append(names, n)
		for _, x := range xs {
			totals[n] += x
		}
		all += totals[n]
	}
	sort.Slice(names, func(a, b int) bool { return totals[names[a]] > totals[names[b]] })
	fmt.Printf("  %-16s %8s %14s %12s %7s\n", "layer", "spans", "self_total_ms", "self_p50_us", "share")
	for _, n := range names {
		fmt.Printf("  %-16s %8d %14.3f %12.1f %6.1f%%\n", n, len(byName[n]), totals[n]/1e3, median(byName[n]), 100*totals[n]/all)
	}
	fmt.Printf("  tracing overhead: traced read_p50_ms %.4f vs untraced → ratio %.3f\n",
		p.m["read_p50_ms"], layers["trace.overhead_ratio"])
	return nil
}

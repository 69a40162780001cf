package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"crowddb/internal/core"
	"crowddb/internal/crowd"
	"crowddb/internal/jobs"
	"crowddb/internal/storage"
)

// fakeService answers every item with a deterministic majority:
// positive iff the item ID is even. A non-nil gate stalls Collect.
type fakeService struct {
	gate  chan struct{}
	calls atomic.Int32
}

func (s *fakeService) Collect(question string, itemIDs []int, cfg crowd.JobConfig) (*crowd.RunResult, error) {
	s.calls.Add(1)
	if s.gate != nil {
		<-s.gate
	}
	res := &crowd.RunResult{DurationMinutes: 1}
	for _, id := range itemIDs {
		for a := 0; a < cfg.AssignmentsPerItem; a++ {
			ans := crowd.Positive
			if id%2 == 1 {
				ans = crowd.Negative
			}
			res.Records = append(res.Records, crowd.Record{ItemID: id, WorkerID: a, Answer: ans})
		}
	}
	res.TotalCost = float64(len(res.Records)) * cfg.PayPerHIT / float64(cfg.ItemsPerHIT)
	return res, nil
}

func newTestServer(t *testing.T, svc core.JudgmentService, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	db := core.NewDB(svc)
	t.Cleanup(func() { _ = db.Close() })
	if _, _, err := db.ExecSQL(`CREATE TABLE movies (movie_id INTEGER, name TEXT, year INTEGER)`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Catalog().Get("movies")
	for i := 0; i < 20; i++ {
		if err := tbl.Insert(storage.Int(int64(i)), storage.Text(fmt.Sprintf("movie-%02d", i)), storage.Int(int64(1990+i))); err != nil {
			t.Fatal(err)
		}
	}
	db.RegisterExpandable("movies", "is_comedy", storage.KindBool,
		core.ExpandOptions{Method: "CROWD"})
	s := New(db, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postQuery(t *testing.T, url, sql, mode string) (int, queryResponse) {
	t.Helper()
	body, _ := json.Marshal(queryRequest{SQL: sql, Mode: mode})
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestQueryRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, &fakeService{}, Config{})

	code, out := postQuery(t, ts.URL, `SELECT name, year FROM movies WHERE year >= 2005 ORDER BY year`, "")
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	if len(out.Rows) != 5 || out.Columns[0] != "name" {
		t.Fatalf("response = %+v", out)
	}
	if out.Rows[0][0] != "movie-15" || out.Rows[0][1] != float64(2005) {
		t.Fatalf("row0 = %v", out.Rows[0])
	}
}

func TestSyncQueryExpandsAndReports(t *testing.T) {
	_, ts := newTestServer(t, &fakeService{}, Config{})

	code, out := postQuery(t, ts.URL, `SELECT COUNT(*) FROM movies WHERE is_comedy = true`, "sync")
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	if out.Expansion == nil || out.Expansion.Filled != 20 {
		t.Fatalf("expansion = %+v", out.Expansion)
	}
	if out.Rows[0][0] != float64(10) {
		t.Fatalf("count = %v", out.Rows[0][0])
	}
}

func TestAsyncQueryJobPolling(t *testing.T) {
	svc := &fakeService{gate: make(chan struct{})}
	_, ts := newTestServer(t, svc, Config{})

	code, out := postQuery(t, ts.URL, `SELECT name FROM movies WHERE is_comedy = true`, "async")
	if code != http.StatusAccepted {
		t.Fatalf("code = %d", code)
	}
	if out.Job == nil || out.Job.ID == "" {
		t.Fatalf("job = %+v", out.Job)
	}
	if out.Job.State.Terminal() {
		t.Fatalf("job already terminal: %s", out.Job.State)
	}

	// Poll without wait: still running.
	var st jobs.Status
	if code := getJSON(t, ts.URL+"/jobs/"+out.Job.ID, &st); code != http.StatusOK {
		t.Fatalf("poll code = %d", code)
	}
	if st.State.Terminal() {
		t.Fatalf("premature terminal state %s", st.State)
	}

	// Release the crowd and long-poll to completion.
	close(svc.gate)
	if code := getJSON(t, ts.URL+"/jobs/"+out.Job.ID+"?wait=1", &st); code != http.StatusOK {
		t.Fatalf("wait code = %d", code)
	}
	if st.State != jobs.StateDone || st.Ledger.Charges != 1 {
		t.Fatalf("status = %+v", st)
	}

	// The query now answers synchronously with no new expansion.
	code, out = postQuery(t, ts.URL, `SELECT name FROM movies WHERE is_comedy = true`, "async")
	if code != http.StatusOK || out.Job != nil {
		t.Fatalf("code = %d job = %+v", code, out.Job)
	}
	if len(out.Rows) != 10 {
		t.Fatalf("rows = %d", len(out.Rows))
	}
	if got := svc.calls.Load(); got != 1 {
		t.Fatalf("service calls = %d, want 1", got)
	}

	// The job list shows exactly one job.
	var list []jobs.Status
	if code := getJSON(t, ts.URL+"/jobs", &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("jobs list code=%d len=%d", code, len(list))
	}
}

func TestSchemaAndLedgerEndpoints(t *testing.T) {
	_, ts := newTestServer(t, &fakeService{}, Config{})

	var tables struct {
		Tables []string `json:"tables"`
	}
	if code := getJSON(t, ts.URL+"/schema", &tables); code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	if len(tables.Tables) != 1 || tables.Tables[0] != "movies" {
		t.Fatalf("tables = %v", tables.Tables)
	}

	// Expand, then check the new column's provenance shows up.
	if code, _ := postQuery(t, ts.URL, `SELECT 1 FROM movies WHERE is_comedy = true`, "sync"); code != http.StatusOK {
		t.Fatalf("expand code = %d", code)
	}
	var schema struct {
		Table   string       `json:"table"`
		Rows    int          `json:"rows"`
		Columns []columnInfo `json:"columns"`
	}
	if code := getJSON(t, ts.URL+"/schema/movies", &schema); code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	if schema.Rows != 20 || len(schema.Columns) != 4 {
		t.Fatalf("schema = %+v", schema)
	}
	last := schema.Columns[3]
	if last.Name != "is_comedy" || last.Origin != "expanded" || !last.Perceptual {
		t.Fatalf("expanded column = %+v", last)
	}
	if code := getJSON(t, ts.URL+"/schema/nope", nil); code != http.StatusNotFound {
		t.Fatalf("missing table code = %d", code)
	}

	var led core.LedgerTotals
	if code := getJSON(t, ts.URL+"/ledger", &led); code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	if led.Jobs != 1 || led.Judgments == 0 {
		t.Fatalf("ledger = %+v", led)
	}
}

// TestLedgerPerJobBreakdown: /ledger must itemize each expansion job's
// spend alongside the cumulative totals, and the per-job costs must sum
// to them.
func TestLedgerPerJobBreakdown(t *testing.T) {
	_, ts := newTestServer(t, &fakeService{}, Config{})

	// Two distinct expansions → two billed jobs.
	if code, _ := postQuery(t, ts.URL, `SELECT 1 FROM movies WHERE is_comedy = true`, "sync"); code != http.StatusOK {
		t.Fatalf("first expansion code = %d", code)
	}
	if code, _ := postQuery(t, ts.URL, `EXPAND TABLE movies ADD COLUMN is_scary BOOLEAN USING CROWD`, "sync"); code != http.StatusOK {
		t.Fatalf("second expansion code = %d", code)
	}

	var led ledgerResponse
	if code := getJSON(t, ts.URL+"/ledger", &led); code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	if len(led.PerJob) != 2 {
		t.Fatalf("per_job has %d entries, want 2: %+v", len(led.PerJob), led.PerJob)
	}
	keys := map[string]bool{}
	var sumCost float64
	var sumJudgments int
	for _, j := range led.PerJob {
		if j.ID == "" || j.State != jobs.StateDone || j.Cost == 0 || j.Judgments == 0 {
			t.Fatalf("job line = %+v", j)
		}
		keys[j.Key] = true
		sumCost += j.Cost
		sumJudgments += j.Judgments
	}
	if !keys["movies.is_comedy"] || !keys["movies.is_scary"] {
		t.Fatalf("job keys = %v", keys)
	}
	if sumCost != led.Cost || sumJudgments != led.Judgments {
		t.Fatalf("breakdown (%v, %d) does not sum to totals (%v, %d)",
			sumCost, sumJudgments, led.Cost, led.Judgments)
	}
}

// TestAdminSnapshot: on a durable DB the endpoint persists and reports
// the covered sequence number; on an in-memory DB it is a 409.
func TestAdminSnapshot(t *testing.T) {
	db, err := core.Open(core.Options{Service: &fakeService{}, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	if _, _, err := db.ExecSQL(`CREATE TABLE t (a INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.ExecSQL(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db, Config{}).Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/admin/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out.Seq == 0 {
		t.Fatalf("snapshot: code=%d seq=%d", resp.StatusCode, out.Seq)
	}

	// In-memory DB: snapshot is a conflict, not a crash.
	_, tsMem := newTestServer(t, &fakeService{}, Config{})
	resp, err = http.Post(tsMem.URL+"/admin/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("in-memory snapshot code = %d, want 409", resp.StatusCode)
	}
}

func TestAdmissionQueueSheds(t *testing.T) {
	svc := &fakeService{gate: make(chan struct{})}
	_, ts := newTestServer(t, svc, Config{MaxInflight: 1})

	// Occupy the single admission slot with a sync expanding query.
	done := make(chan struct{})
	go func() {
		defer close(done)
		code, _ := postQuery(t, ts.URL, `SELECT 1 FROM movies WHERE is_comedy = true`, "sync")
		if code != http.StatusOK {
			t.Errorf("blocked query finished with %d", code)
		}
	}()
	// Wait until that query reaches the (stalled) crowd, so it holds the
	// slot before any probe can take it; then every probe must get 503.
	deadline := time.Now().Add(5 * time.Second)
	for svc.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocked query never reached the crowd")
		}
		time.Sleep(time.Millisecond)
	}
	deadline = time.Now().Add(2 * time.Second)
	got503 := false
	for time.Now().Before(deadline) {
		body, _ := json.Marshal(queryRequest{SQL: `SELECT 1 FROM movies`})
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		retry := resp.Header.Get("Retry-After")
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if retry == "" {
				t.Fatal("503 without Retry-After")
			}
			got503 = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !got503 {
		t.Fatal("admission queue never shed load")
	}
	close(svc.gate)
	<-done
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, &fakeService{}, Config{})

	if code, _ := postQuery(t, ts.URL, "", ""); code != http.StatusBadRequest {
		t.Fatalf("empty sql code = %d", code)
	}
	if code, _ := postQuery(t, ts.URL, "SELECT 1 FROM movies", "weird"); code != http.StatusBadRequest {
		t.Fatalf("bad mode code = %d", code)
	}
	if code, _ := postQuery(t, ts.URL, "SELEKT broken", ""); code != http.StatusBadRequest {
		t.Fatalf("parse error code = %d", code)
	}
	if code := getJSON(t, ts.URL+"/jobs/job-999", nil); code != http.StatusNotFound {
		t.Fatalf("missing job code = %d", code)
	}
}

func TestGracefulShutdown(t *testing.T) {
	db := core.NewDB(&fakeService{})
	defer db.Close()
	if _, _, err := db.ExecSQL(`CREATE TABLE t (a INTEGER)`); err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()

	url := "http://" + ln.Addr().String()
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after graceful shutdown", err)
	}
}

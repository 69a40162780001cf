package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"crowddb/internal/storage"
)

// servePoint — the serving path under skewed, repetitive traffic.
//
// Why: exploratory query traffic is skewed and repeats itself, so HTTP
// decode/encode, the per-request slog line, parse, plan and the result
// cache do nearly all the work and the executor does little. Caching and
// per-request overhead show here and not on scans.
//
// Sizes: a 100k-row items table (hash index on id, ordered index on
// price) and 1000 distinct small SELECTs — 600 point lookups, 250
// ordered-index ranges with LIMIT 20, 150 filtered COUNTs over price
// ranges of about 1000 items. Their results total well under 1 MiB, so the working set
// fits the 64 MiB result cache.
//
// Load: 2 closed-loop clients (no more than the 2 cores) pick queries
// Zipf-distributed (s = 1.1) over the 1000; the kind at each popularity
// rank is the same for every seed, the literals are drawn from it. Every
// 25th request of client 0 is a single-row UPDATE of a Zipf-chosen point
// id (about 2% of all requests), which invalidates the table's cached
// results.
//
// Flush policy: in memory (no data dir), as crowdserve runs by default.
//
// Checks: every answer against the generator's model. Range and COUNT
// answers read immutable columns and must match exactly; a point read
// must return a qty that was current at some instant during the request.
type servePoint struct {
	n      int
	price  []int64 // by id; distinct
	cat    []int64
	qty    *qtyModel
	byP    []int64 // ids ordered by price
	quers  []spQuery
	points []int64 // ids with a point query, for UPDATE targets
}

type spQuery struct {
	kind string // point, range, count
	sql  string
	id   int64
	// want is the expected answer of range (ids) and count queries.
	want []int64
}

// qtyModel tracks every value each item's qty has held, so that a point
// read racing an UPDATE can be checked exactly.
type qtyModel struct {
	mu    sync.Mutex
	hist  map[int64][]int64
	acked map[int64]int // index into hist of the last acknowledged value
}

func (q *qtyModel) window(id int64) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.acked[id]
}

// valid reports whether v was the acknowledged value at or after index
// lo, or the value of an UPDATE issued before now.
func (q *qtyModel) valid(id int64, lo int, v int64) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, x := range q.hist[id][lo:] {
		if x == v {
			return true
		}
	}
	return false
}

func (q *qtyModel) issue(id, v int64) {
	q.mu.Lock()
	q.hist[id] = append(q.hist[id], v)
	q.mu.Unlock()
}

func (q *qtyModel) ack(id int64) {
	q.mu.Lock()
	q.acked[id] = len(q.hist[id]) - 1
	q.mu.Unlock()
}

func (w *servePoint) setup(p *phase) (*env, error) {
	rng := rand.New(rand.NewSource(p.cfg.seed))
	w.n = p.scaled(100_000)
	w.price = make([]int64, w.n)
	w.cat = make([]int64, w.n)
	w.qty = &qtyModel{hist: map[int64][]int64{}, acked: map[int64]int{}}
	perm := rng.Perm(w.n)
	for i := range w.price {
		w.price[i] = 1000 + 3*int64(perm[i])
		w.cat[i] = int64(rng.Intn(10))
	}
	w.byP = make([]int64, w.n)
	for i := range w.byP {
		w.byP[i] = int64(i)
	}
	sort.Slice(w.byP, func(a, b int) bool { return w.price[w.byP[a]] < w.price[w.byP[b]] })

	e, err := p.serve(crowdserveDefaults())
	if err != nil {
		return nil, err
	}
	for _, sql := range []string{
		`CREATE TABLE items (id INTEGER, price INTEGER, cat INTEGER, qty INTEGER, name TEXT)`,
	} {
		if _, _, err := e.db.ExecSQL(sql); err != nil {
			e.close()
			return nil, err
		}
	}
	tbl, _ := e.db.Catalog().Get("items")
	initQty := make([]int64, w.n)
	start := time.Now()
	for i := 0; i < w.n; i++ {
		initQty[i] = int64(rng.Intn(1000))
		if err := tbl.Insert(storage.Int(int64(i)), storage.Int(w.price[i]), storage.Int(w.cat[i]),
			storage.Int(initQty[i]), storage.Text(fmt.Sprintf("item-%d", i))); err != nil {
			e.close()
			return nil, err
		}
	}
	p.insertSpan(start, time.Now(), "items", w.n)
	for _, sql := range []string{
		`CREATE INDEX items_id ON items (id) USING HASH`,
		`CREATE INDEX items_price ON items (price) USING ORDERED`,
	} {
		if _, _, err := e.db.ExecSQL(sql); err != nil {
			e.close()
			return nil, err
		}
	}

	// A query's Zipf rank fixes its kind by a repeating pattern (12
	// point, 5 range, 3 count per 20 ranks), so every seed sends the same
	// mix of kinds at every popularity; the seed picks the literals.
	const pattern = "PRPCPPRPPRPCPPRPPCRP"
	total := max(len(pattern), int(1000*min(1, p.cfg.scale*10)))
	seen := map[string]bool{}
	for len(w.quers) < total {
		var q spQuery
		lo := 1000 + int64(rng.Intn(3*w.n))
		switch pattern[len(w.quers)%len(pattern)] {
		case 'P':
			id := int64(rng.Intn(w.n))
			q = spQuery{kind: "point", id: id,
				sql: fmt.Sprintf("SELECT id, price, cat, qty, name FROM items WHERE id = %d", id)}
		case 'R':
			hi := lo + 60 + int64(rng.Intn(540))
			q = spQuery{kind: "range", want: w.priceRange(lo, hi, 20),
				sql: fmt.Sprintf("SELECT id, price FROM items WHERE price >= %d AND price < %d ORDER BY price LIMIT 20", lo, hi)}
		case 'C':
			hi := lo + 3000
			c := int64(rng.Intn(10))
			var n int64
			for _, id := range w.priceRange(lo, hi, -1) {
				if w.cat[id] == c {
					n++
				}
			}
			q = spQuery{kind: "count", want: []int64{n},
				sql: fmt.Sprintf("SELECT COUNT(*) FROM items WHERE price >= %d AND price < %d AND cat = %d", lo, hi, c)}
		}
		if !seen[q.sql] {
			seen[q.sql] = true
			w.quers = append(w.quers, q)
		}
	}
	for _, q := range w.quers {
		if q.kind == "point" {
			w.points = append(w.points, q.id)
			w.qty.hist[q.id] = []int64{initQty[q.id]}
			w.qty.acked[q.id] = 0
		}
	}
	return e, nil
}

// priceRange returns the ids with lo <= price < hi in price order, at
// most limit of them (limit < 0: all).
func (w *servePoint) priceRange(lo, hi int64, limit int) []int64 {
	i := sort.Search(len(w.byP), func(k int) bool { return w.price[w.byP[k]] >= lo })
	var out []int64
	for ; i < len(w.byP) && w.price[w.byP[i]] < hi; i++ {
		if limit >= 0 && len(out) == limit {
			break
		}
		out = append(out, w.byP[i])
	}
	return out
}

func (w *servePoint) run(e *env, deadline time.Time) error {
	var wg sync.WaitGroup
	var writeSeq int64
	for c := 0; c < 2; c++ {
		cl := e.newClient(fmt.Sprintf("c%d", c))
		rng := rand.New(rand.NewSource(e.p.cfg.seed*7919 + int64(c)))
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(w.quers)-1))
		pz := rand.NewZipf(rng, 1.1, 1, uint64(len(w.points)-1))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer e.p.merge(cl.rec)
			for i := 1; time.Now().Before(deadline); i++ {
				if c == 0 && i%25 == 0 {
					id := w.points[pz.Uint64()]
					writeSeq++
					v := 1_000_000 + writeSeq
					w.qty.issue(id, v)
					rep, d, err := cl.query("update", fmt.Sprintf("UPDATE items SET qty = %d WHERE id = %d", v, id))
					if err == nil && rep.Affected != 1 {
						err = fmt.Errorf("UPDATE id %d affected %d rows", id, rep.Affected)
					}
					if err == nil {
						w.qty.ack(id)
						cl.rec.add("write", d)
					}
					e.p.check(err)
					continue
				}
				q := w.quers[zipf.Uint64()]
				lo := 0
				if q.kind == "point" {
					lo = w.qty.window(q.id)
				}
				rep, d, err := cl.query(q.kind, q.sql)
				if err == nil {
					err = w.checkAnswer(q, rep, lo)
					cl.rec.add("read", d)
				}
				e.p.check(err)
			}
		}(c)
	}
	wg.Wait()
	return nil
}

func (w *servePoint) checkAnswer(q spQuery, rep *reply, lo int) error {
	switch q.kind {
	case "point":
		if len(rep.Rows) != 1 || len(rep.Rows[0]) != 5 {
			return fmt.Errorf("point id %d: %d rows", q.id, len(rep.Rows))
		}
		r := rep.Rows[0]
		id, _ := asInt(r[0])
		price, _ := asInt(r[1])
		cat, _ := asInt(r[2])
		qty, _ := asInt(r[3])
		name, _ := r[4].(string)
		if id != q.id || price != w.price[q.id] || cat != w.cat[q.id] || name != fmt.Sprintf("item-%d", q.id) {
			return fmt.Errorf("point id %d: wrong row %v", q.id, r)
		}
		if !w.qty.valid(q.id, lo, qty) {
			return fmt.Errorf("point id %d: stale qty %d", q.id, qty)
		}
	case "range":
		if len(rep.Rows) != len(q.want) {
			return fmt.Errorf("%s: %d rows, want %d", q.sql, len(rep.Rows), len(q.want))
		}
		for i, r := range rep.Rows {
			id, _ := asInt(r[0])
			price, _ := asInt(r[1])
			if id != q.want[i] || price != w.price[id] {
				return fmt.Errorf("%s: row %d is %v, want id %d", q.sql, i, r, q.want[i])
			}
		}
	case "count":
		if len(rep.Rows) != 1 {
			return fmt.Errorf("%s: %d rows", q.sql, len(rep.Rows))
		}
		if n, _ := asInt(rep.Rows[0][0]); n != q.want[0] {
			return fmt.Errorf("%s: count %d, want %d", q.sql, n, q.want[0])
		}
	}
	return nil
}

func (w *servePoint) verify(e *env) error { return nil }

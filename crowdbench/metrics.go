package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The two lists below are the
// benchmark's catalog; BENCHMARK.json at the repository root lists the
// same names (the self-test checks that they agree).
type metricDef struct {
	name, unit string
	// traced marks a per-layer metric read from the traced pass; the
	// others come from the untraced pass of the same --trace 1 run.
	traced bool
}

// endToEnd is what a user of the served database sees, measured with
// tracing off. Every workload reads, so every workload reports all of
// them; none can be zero.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "heap_mb", unit: "MB"},
	{name: "read_p50_ms", unit: "ms"},
	{name: "read_qps", unit: "1/s"},
}

// perLayer is reported by --trace 1 on every workload; a layer a
// workload does not exercise reports 0. The first block holds
// user-visible figures that are not gated end to end: the read tail
// (its run-to-run spread on a shared 2-core machine exceeds any usable
// bound) and the figures that exist on one workload only (writes and
// recovery on write_mix, expansion latency, cost and quality on expand).
// Every run's summary prints them too.
var perLayer = []metricDef{
	{name: "read_tail_ms", unit: "ms"},
	{name: "write_p50_ms", unit: "ms"},
	{name: "write_tail_ms", unit: "ms"},
	{name: "write_rows_per_s", unit: "1/s"},
	{name: "recover_s", unit: "s"},
	{name: "expand_p50_ms", unit: "ms"},
	{name: "expand_tail_ms", unit: "ms"},
	{name: "expand_usd_per_col", unit: "usd"},
	{name: "expand_gmean", unit: "ratio"},

	{name: "server.self_us_p50", unit: "us", traced: true},
	{name: "server.resp_bytes_p50", unit: "bytes"},
	{name: "net.client_minus_handler_us_p50", unit: "us", traced: true},
	{name: "sqlparse.parse_us_p50", unit: "us", traced: true},
	{name: "plan.plan_us_p50", unit: "us", traced: true},
	{name: "cache.hit_ratio", unit: "ratio"},
	{name: "cache.evictions", unit: "count"},
	{name: "cache.invalidations", unit: "count"},
	{name: "cache.lookup_us_p50", unit: "us", traced: true},
	{name: "exec.execute_ms_p50.filter", unit: "ms", traced: true},
	{name: "exec.execute_ms_p50.topn", unit: "ms", traced: true},
	{name: "exec.execute_ms_p50.groupby", unit: "ms", traced: true},
	{name: "exec.execute_ms_p50.join", unit: "ms", traced: true},
	{name: "exec.execute_ms_p50.rows", unit: "ms", traced: true},
	{name: "exec.dop1_over_dopN.filter", unit: "ratio"},
	{name: "exec.dop1_over_dopN.topn", unit: "ratio"},
	{name: "exec.dop1_over_dopN.groupby", unit: "ratio"},
	{name: "exec.dop1_over_dopN.join", unit: "ratio"},
	{name: "exec.dop1_over_dopN.rows", unit: "ratio"},
	{name: "exec.rows_in_per_row_out.topn", unit: "ratio", traced: true},
	{name: "exec.dop_float_drift", unit: "count"},
	{name: "exec.alloc_kb_per_query", unit: "KB"},
	{name: "exec.mallocs_per_query", unit: "count"},
	{name: "storage.insert_us_per_row", unit: "us"},
	{name: "storage.update_us_per_row", unit: "us"},
	{name: "storage.compact_ms_p50", unit: "ms"},
	{name: "storage.tombstones", unit: "count"},
	{name: "storage.chunks", unit: "count"},
	{name: "storage.lost_updates", unit: "count"},
	{name: "wal.bytes_per_user_byte", unit: "ratio"},
	{name: "wal.log_bytes_at_close", unit: "bytes"},
	{name: "wal.snapshot_ms_p50", unit: "ms"},
	{name: "jobs.queue_wait_ms_p50", unit: "ms"},
	{name: "jobs.run_ms_p50", unit: "ms"},
	{name: "crowd.collect_ms_p50", unit: "ms"},
	{name: "crowd.judgments_per_col", unit: "count"},
	{name: "crowd.charges", unit: "count"},
	{name: "crowd.sim_minutes_per_col", unit: "min"},
	{name: "expand.model_fill_ms_p50", unit: "ms"},
	{name: "expand.hybrid_ms_p50", unit: "ms"},
	{name: "expand.crowd_ms_p50", unit: "ms"},
	{name: "space.train_s", unit: "s"},
	{name: "go.alloc_mb_per_kop", unit: "MB"},
	{name: "go.gc_cycles_per_kop", unit: "count"},

	{name: "trace.overhead_ratio", unit: "ratio", traced: true},
	{name: "self_us_p50.client", unit: "us", traced: true},
	{name: "self_us_p50.server", unit: "us", traced: true},
	{name: "self_us_p50.core", unit: "us", traced: true},
	{name: "self_us_p50.parse", unit: "us", traced: true},
	{name: "self_us_p50.plan", unit: "us", traced: true},
	{name: "self_us_p50.cache_lookup", unit: "us", traced: true},
	{name: "self_us_p50.execute", unit: "us", traced: true},
}

// percentile is the nearest-rank q-th percentile of xs (0 when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailQuantiles are the candidates for a tail figure, highest first.
// They are spaced far apart so that every workload's sample counts sit
// well inside one band and a run never flips between two percentiles.
var tailQuantiles = []float64{99, 90, 50}

// tail returns the highest candidate percentile that has at least ten
// samples beyond it, with that percentile.
func tail(xs []float64) (value, q float64) {
	for _, q := range tailQuantiles {
		if float64(len(xs))*(1-q/100) >= 10 {
			return percentile(xs, q), q
		}
	}
	return percentile(xs, 50), 50
}

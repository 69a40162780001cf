package main

// The benchmark's own self-test: a reduced-size run of every workload,
// untraced and traced, must report every catalog metric with its unit
// and no failed operation; the expand workload's cost and quality
// figures must repeat exactly for a fixed seed; and the catalog must
// match BENCHMARK.json. Run it from this directory with `go test .`.

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func smallRun(t *testing.T, workload string, seed int64, trace bool) *result {
	t.Helper()
	res, err := run(runConfig{
		workload: workload, seed: seed, window: 300 * time.Millisecond,
		trace: trace, scale: 0.02, outDir: t.TempDir(), quiet: true,
	})
	if err != nil {
		t.Fatalf("%s (trace=%v): %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s (trace=%v): correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, w := range []string{"serve_point", "analytic", "write_mix", "expand"} {
		t.Run(w, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				res := smallRun(t, w, 11, trace)
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics, catalog has %d", trace, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("trace=%v: metric %s missing or without unit %q: %+v", trace, d.name, d.unit, m)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			}
		})
	}
}

func TestExpandCostAndQualityRepeat(t *testing.T) {
	a := smallRun(t, "expand", 7, true)
	b := smallRun(t, "expand", 7, true)
	for _, name := range []string{"expand_usd_per_col", "expand_gmean", "crowd.judgments_per_col"} {
		if a.Metrics[name].Value <= 0 || a.Metrics[name] != b.Metrics[name] {
			t.Errorf("%s: %v then %v, want the same positive value", name, a.Metrics[name], b.Metrics[name])
		}
	}
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalog %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s, the catalog %s/%s", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

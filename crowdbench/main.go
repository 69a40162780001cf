// Command crowdbench is crowddb's end-to-end benchmark. It builds a
// database with core.Open, serves it with server.New on a loopback
// listener using crowdserve's shipped defaults, drives it with
// closed-loop HTTP clients in this process, checks every answer, and
// prints one JSON result line last on standard output.
//
//	bash crowdbench/run.sh --workload serve_point --seed 1 --seconds 10 --trace 0
//
// Workloads (each documented next to its definition): serve_point,
// analytic, write_mix, expand. --seed is required; every input the
// program receives is generated from it.
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// twice with the same seed, untraced and then traced, and reports the
// per-layer metrics, a per-layer self-time table, the tracing overhead
// and an environment line; the spans go to
// .bench_build/crowdbench/trace/<workload>-seed<n>.jsonl.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"time"
)

// setupRuns is how many times a run builds its workload's database; the
// reported setup_s is the median, and the last set-up serves the load.
const setupRuns = 3

type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	// scale shrinks table sizes for the self-test (1 = full size).
	scale float64
	// outDir receives the trace files.
	outDir string
	// quiet suppresses the human-readable summary (self-test).
	quiet bool
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: serve_point, analytic, write_mix or expand")
		seed    = flag.Int64("seed", -1, "seed for every generated input (required, >= 0)")
		seconds = flag.Float64("seconds", 10, "measured window per phase, in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	if *seed < 0 {
		fmt.Fprintln(os.Stderr, "crowdbench: --seed is required")
		os.Exit(2)
	}
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(os.Stderr, "crowdbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := runConfig{
		workload: *name, seed: *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		trace:  *trace == 1, scale: 1,
		outDir: ".bench_build/crowdbench",
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crowdbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crowdbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload run: the timed set-ups, the measured window
// and its checks, and — with tracing — a second, traced pass.
func run(cfg runConfig) (*result, error) {
	if cfg.window <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	plain, err := runPhase(cfg, nil)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: plain.attempted(), Failed: plain.failed(), Metrics: map[string]metric{}}
	if !cfg.trace {
		for _, d := range endToEnd {
			v, ok := plain.m[d.name]
			if !ok {
				return nil, fmt.Errorf("metric %s was not measured", d.name)
			}
			res.Metrics[d.name] = metric{v, d.unit}
		}
		plain.summary(cfg, plain.m)
	} else {
		tr := newTracer()
		traced, err := runPhase(cfg, tr)
		if err != nil {
			return nil, err
		}
		res.Attempted += traced.attempted()
		res.Failed += traced.failed()
		layers := traced.traceMetrics(plain)
		merged := maps.Clone(plain.m)
		for _, d := range perLayer {
			v := plain.m[d.name]
			if d.traced {
				v = layers[d.name]
			}
			merged[d.name] = v
			res.Metrics[d.name] = metric{v, d.unit}
		}
		plain.summary(cfg, merged)
		if err := traced.writeTrace(cfg, layers); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// Command e2ebench is the repository's end-to-end benchmark. It stands up
// an in-process ehdoed (serve.New on a loopback listener) with a loopback
// fleet of cluster workers running the real engine at the paper's 60 s
// horizon, drives one named workload, checks the outputs, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash e2ebench/run.sh --workload build-cold --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// twice for half the time each, untraced and then traced, and reports the
// per-layer metrics of the traced half plus bench.trace_overhead.<metric>,
// the traced minus the untraced value of each end-to-end metric. Traced
// spans are kept in memory and written as JSON lines when the run ends.
//
// settings.json fixes every workload constant and maps each per-layer
// metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: build-cold, build-warm or serve-mix")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	set, err := loadSettings()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	res, err := run(o, set, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(2)
	}
}

// run executes one benchmark run and returns its result; w receives the
// human-readable report.
func run(o options, set settings, w io.Writer) (*result, error) {
	known := false
	for _, n := range workloadNames {
		known = known || n == o.workload
	}
	if !known {
		return nil, fmt.Errorf("--workload must be one of %v, not %q", workloadNames, o.workload)
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		return nil, fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	cfg := passConfig{workload: o.workload, seed: o.seed, set: set,
		dur: time.Duration(o.seconds * float64(time.Second)), conns: runtime.NumCPU()}
	fmt.Fprintf(w, "e2ebench %s seed %d: %g s measured, %d client connections, horizon %g s\n",
		o.workload, o.seed, o.seconds, cfg.conns, set.HorizonS)

	res := &result{Correct: true, Metrics: map[string]metric{}}
	add := func(p *pass) {
		a, f := p.counts()
		res.Attempted += a
		res.Failed += f
		for _, c := range p.checks {
			res.Correct = false
			fmt.Fprintln(w, "CHECK FAILED:", c)
		}
	}
	if o.trace == 0 {
		p, err := runPass(cfg)
		if err != nil {
			return nil, err
		}
		add(p)
		p.printLadder(w)
		vals := p.endToEndValues(w)
		printMetrics(w, endToEnd, vals)
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{vals[d.name], d.unit}
		}
		return res, nil
	}

	cfg.dur /= 2
	fmt.Fprintln(w, "untraced half:")
	plain, err := runPass(cfg)
	if err != nil {
		return nil, err
	}
	add(plain)
	base := plain.endToEndValues(w)
	cfg.tr = newTracer()
	fmt.Fprintln(w, "traced half:")
	traced, err := runPass(cfg)
	if err != nil {
		return nil, err
	}
	add(traced)
	traced.printLadder(w)
	vals := traced.perLayerValues()
	for k, v := range traced.endToEndValues(w) {
		vals[overheadPrefix+k] = v - base[k]
	}
	if n := cfg.tr.dropped.Load(); n > 0 {
		fmt.Fprintf(w, "%d spans over the in-memory cap were counted, not kept\n", n)
	}
	spans := spansPath(o)
	if err := cfg.tr.write(spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(w, "spans written to %s\n", spans)
	defs := perLayerDefs()
	printMetrics(w, defs, vals)
	fmt.Fprintln(w, "note: batch lanes run inside the batch prepass, not through the Runner's engine func; their engine time is core.design_run_ms.batch, not sim.engine_*")
	fmt.Fprintln(w, "note: no public seam splits rsm fitting, doe augmentation or request decode/compute/encode; their time stays inside jobs.post_sim_ms.* and serve.*.handler_p50_ms")
	fmt.Fprintf(w, "note: the generator keeps at most %d requests in flight, one per connection, below the admission limit of 4 x GOMAXPROCS per endpoint; nothing queues or sheds, so load.admission.* stay 0, and load.ladder.max_qps is the limit of %d outstanding requests, not of admission\n", cfg.conns, cfg.conns)
	for _, d := range defs {
		res.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
	return res, nil
}

// spansPath is where a traced run writes its spans: under the build
// directory, $CARGO_TARGET_DIR (default .bench_build).
func spansPath(o options) string {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	return filepath.Join(dir, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
}

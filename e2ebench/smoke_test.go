package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// shortSettings shrinks the workloads so all three run in seconds: a 2 s
// simulated horizon, one set-up, a one-excitation warm pool and a short
// ladder.
func shortSettings(t *testing.T) settings {
	t.Helper()
	set, err := loadSettings()
	if err != nil {
		t.Fatal(err)
	}
	set.HorizonS = 2
	set.SetupRepeats = 1
	set.WarmPool = 1
	set.RebuildEveryS = 0.2
	set.Reads.ReferenceRPS = 100
	set.Reads.LadderRPS = []float64{100, 300}
	return set
}

func names(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func defNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

// TestSmokeAllWorkloads runs every workload untraced and traced at a short
// horizon. Each run must pass its output checks (jobs done with their
// runs, served predictions equal to PredictBatch, byte-identical predict
// bodies across the batch, cluster and fast paths), fail nothing, and
// report exactly the metrics its mode promises.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the in-process stack")
	}
	set := shortSettings(t)
	t.Setenv("CARGO_TARGET_DIR", t.TempDir())
	for _, wl := range workloadNames {
		for _, trace := range []int{0, 1} {
			o := options{workload: wl, seed: 3, seconds: 1.5, trace: trace}
			res, err := run(o, set, io.Discard)
			if err != nil {
				t.Fatalf("%s trace %d: %v", wl, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace %d: correct %v, %d of %d failed", wl, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := defNames(endToEnd)
			if trace == 1 {
				want = defNames(perLayerDefs())
			}
			if got := names(res.Metrics); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("%s trace %d: metrics %v, want %v", wl, trace, got, want)
			}
			m := res.Metrics
			if trace == 0 {
				for _, k := range []string{"setup_s", "build_fixed_p50_ms", "predict_p50_ms", "heap_peak_mb"} {
					if m[k].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", wl, k, m[k].Value)
					}
				}
				continue
			}
			if _, err := os.Stat(spansPath(o)); err != nil {
				t.Errorf("%s: spans not written: %v", wl, err)
			}
			if wl == buildCold {
				// Every cache miss runs the engine once, and cold builds
				// miss on every point they simulate through the runner.
				calls, misses := m["sim.engine_calls"].Value, m["simcache.misses"].Value
				if calls == 0 || calls != misses {
					t.Errorf("build-cold: sim.engine_calls %v, simcache.misses %v: want equal and > 0", calls, misses)
				}
				if m["core.batch.lanes"].Value == 0 || m["cluster.lease_rtt_p50_ms"].Value == 0 {
					t.Errorf("build-cold: batch lanes %v, lease rtt %v: want both measured",
						m["core.batch.lanes"].Value, m["cluster.lease_rtt_p50_ms"].Value)
				}
			}
			if wl == buildWarm {
				if hr := m["simcache.hit_ratio"].Value; hr != 1 {
					t.Errorf("build-warm: simcache.hit_ratio %v, want 1", hr)
				}
				if m["sim.engine_calls"].Value != 0 {
					t.Errorf("build-warm: %v engine calls, want 0", m["sim.engine_calls"].Value)
				}
			}
			if m["serve.predict.handler_p50_ms"].Value <= 0 || m["serve.transport_p50_ms"].Value <= 0 {
				t.Errorf("%s: handler or transport split not measured", wl)
			}
		}
	}
}

// TestSampleHeapBaseline checks that heap_peak_mb counts only what the
// measured region adds to the live heap: memory held from before the
// sampler starts, as the planned schedule is, stays out of it.
func TestSampleHeapBaseline(t *testing.T) {
	held := make([]byte, 64<<20)
	for i := range held {
		held[i] = 1
	}
	var peak float64
	stop := sampleHeap(&peak)
	var grown [][]byte
	for i := 0; i < 16; i++ {
		grown = append(grown, make([]byte, 1<<20))
	}
	runtime.GC()
	stop()
	runtime.KeepAlive(held)
	runtime.KeepAlive(grown)
	if peak < 12 || peak > 40 {
		t.Errorf("peak rise %.1f MB with 64 MB held before and 16 MB added after: want about 16", peak)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, settings.json and the
// metric tables in step: the same names and units, a why for every
// workload and a mapping for every per-layer metric.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	set, err := loadSettings()
	if err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range b.Workloads {
		wls = append(wls, w.Name)
		if set.Workloads[w.Name] == "" {
			t.Errorf("workload %s has no why in settings.json", w.Name)
		}
	}
	if strings.Join(wls, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", wls, workloadNames)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayerDefs(), b.PerLayer)
	for _, d := range endToEnd {
		if set.EndToEnd[d.name] == "" {
			t.Errorf("end-to-end %s has no definition in settings.json", d.name)
		}
	}
	for _, d := range perLayer {
		if set.Layers[d.name] == "" {
			t.Errorf("per-layer %s has no mapping in settings.json", d.name)
		}
	}
}

package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/node"
	"repro/internal/tuner"
	"repro/internal/vibration"
)

// slowSideVariants derives K designs from base that differ only on the
// slow side (reporting period, store threshold, initial charge), so every
// lane lands in one model group and the batch's rebuild amortization is
// exercised while each lane still traces a distinct trajectory.
func slowSideVariants(base Design, k int) []Design {
	designs := make([]Design, k)
	for i := range designs {
		d := base
		d.Node.Period = base.Node.Period + 0.5*float64(i)
		d.Policy = node.ThresholdPolicy{VThreshold: 3.0 + 0.05*float64(i%3)}
		if base.InitialStoreV > 0.2 {
			d.InitialStoreV = base.InitialStoreV - 0.05*float64(i%2)
		}
		designs[i] = d
	}
	return designs
}

// compareLane checks a batch lane against its solo RunFast twin, including
// the rebuild counters compareResults leaves out: a batch lane must report
// the counters of a lane-private memo even though the work was amortized.
func compareLane(t *testing.T, name string, want, got *Result) {
	t.Helper()
	compareResults(t, name, want, got)
	if want.Rebuilds != got.Rebuilds || want.RebuildHits != got.RebuildHits {
		t.Errorf("%s: rebuild counters diverged: solo %d/%d vs batch %d/%d",
			name, want.Rebuilds, want.RebuildHits, got.Rebuilds, got.RebuildHits)
	}
}

// TestRunBatchMatchesRunFastBitwise is the batch engine's half of the
// equivalence suite: across the T1/T6 grids and the tuning transients,
// every lane of a 4-wide batch must be bit-identical to running that
// design alone through RunFast.
func TestRunBatchMatchesRunFastBitwise(t *testing.T) {
	for _, tc := range equivalenceGrid(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			designs := slowSideVariants(tc.d, 4)
			got, stats, err := RunBatchStats(designs, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Lanes != len(designs) || stats.Groups != 1 {
				t.Fatalf("stats = %+v, want %d lanes in 1 group", stats, len(designs))
			}
			for i, d := range designs {
				want, err := RunFast(d, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				compareLane(t, fmt.Sprintf("%s/lane%d", tc.name, i), want, got[i])
			}
		})
	}
}

// TestRunBatchAmortizesRebuilds pins the batch engine's reason to exist:
// tuned lanes sharing a model group must perform fewer actual ZOH bakes
// than the sum of their as-if-alone rebuild counts, with the difference
// accounted as amortized rebuilds.
func TestRunBatchAmortizesRebuilds(t *testing.T) {
	base := DefaultDesign()
	base.InitialStoreV = 3.5
	tc := tuner.DefaultConfig()
	tc.Interval = 1
	tc.EstimatorWin = 0.5
	tc.ActuatorSpeed = 2e-3
	base.Tuner = &tc
	stepped, err := vibration.NewSteppedSine(0.6, []vibration.FreqStep{
		{At: 0, Freq: 70}, {At: 8, Freq: 50}, {At: 16, Freq: 70},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Horizon: 24, Source: stepped}

	designs := slowSideVariants(base, 6)
	results, stats, err := RunBatchStats(designs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	alone := 0
	for _, r := range results {
		alone += r.Rebuilds
	}
	if alone == 0 {
		t.Fatal("tuning transient produced no rebuilds; workload is not exercising the memo")
	}
	if stats.Rebuilds >= alone {
		t.Fatalf("batch performed %d bakes, no amortization vs %d as-if-alone rebuilds", stats.Rebuilds, alone)
	}
	if stats.AmortizedRebuilds == 0 {
		t.Fatalf("stats = %+v: amortized rebuilds not accounted", stats)
	}
}

// TestRunBatchMixedGroups checks that lanes with different harvesters are
// partitioned into separate model groups and still come out bit-identical.
func TestRunBatchMixedGroups(t *testing.T) {
	a := DefaultDesign()
	b := DefaultDesign()
	b.Harv.Mass *= 1.1 // different fast dynamics → own group
	src := vibration.Sine{Amplitude: 0.6, Freq: a.Harv.ResonantFreq(a.Harv.GapMax)}
	cfg := Config{Horizon: 2, Source: src}

	designs := []Design{a, b, a, b}
	got, stats, err := RunBatchStats(designs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Groups != 2 || stats.Lanes != 4 {
		t.Fatalf("stats = %+v, want 4 lanes in 2 groups", stats)
	}
	for i, d := range designs {
		want, err := RunFast(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		compareLane(t, fmt.Sprintf("lane%d", i), want, got[i])
	}
}

// TestRunBatchFirstLaneErrors: an invalid design in lane 0 must drop out
// at setup without disturbing the remaining lanes.
func TestRunBatchFirstLaneErrors(t *testing.T) {
	d := DefaultDesign()
	src := vibration.Sine{Amplitude: 0.6, Freq: d.Harv.ResonantFreq(d.Harv.GapMax)}
	cfg := Config{Horizon: 1, Source: src}

	bad := d
	bad.Policy = nil // fails Validate
	designs := []Design{bad, d, d}
	got, stats, err := RunBatchStats(designs, cfg)
	if err == nil {
		t.Fatal("want a lane error for the invalid design")
	}
	var le *LaneError
	if !errors.As(err, &le) || le.Lane != 0 {
		t.Fatalf("err = %v, want *LaneError for lane 0", err)
	}
	if got[0] != nil {
		t.Fatal("failed lane must have a nil result")
	}
	if stats.Lanes != 2 {
		t.Fatalf("stats = %+v, want 2 surviving lanes", stats)
	}
	want, err := RunFast(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 2} {
		compareLane(t, fmt.Sprintf("lane%d", i), want, got[i])
	}
}

// TestRunBatchMidRunDropout forces lanes to drop mid-run (via the test
// hook) at different steps — including the last lane dropping on the very
// last step — and checks the survivors stay bit-identical to solo runs.
func TestRunBatchMidRunDropout(t *testing.T) {
	base := DefaultDesign()
	src := vibration.Sine{Amplitude: 0.6, Freq: base.Harv.ResonantFreq(base.Harv.GapMax)}
	cfg := Config{Horizon: 1, Source: src, RecordWaveforms: true, Decimate: 50}
	designs := slowSideVariants(base, 5)
	nSteps := int(math.Ceil(cfg.Horizon / 1e-3))

	hookErr := errors.New("injected lane failure")
	batchStepHook = func(step int, ln *batchLane) error {
		switch {
		case ln.index == 2 && step == nSteps/3:
			return hookErr // middle lane drops a third of the way in
		case ln.index == 4 && step == nSteps-1:
			return hookErr // last lane drops on the final step
		}
		return nil
	}
	defer func() { batchStepHook = nil }()

	got, stats, err := RunBatchStats(designs, cfg)
	if err == nil {
		t.Fatal("want lane errors from the injected failures")
	}
	if stats.Lanes != 5 {
		t.Fatalf("stats = %+v, want 5 lanes entering the loop", stats)
	}
	dropped := map[int]bool{2: true, 4: true}
	for i := range designs {
		if dropped[i] {
			if got[i] != nil {
				t.Errorf("lane %d: dropped lane must have a nil result", i)
			}
			continue
		}
		want, err := RunFast(designs[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		compareLane(t, fmt.Sprintf("lane%d", i), want, got[i])
	}
	var joined interface{ Unwrap() []error }
	if !errors.As(err, &joined) || len(joined.Unwrap()) != 2 {
		t.Fatalf("err = %v, want exactly 2 joined lane errors", err)
	}
	for _, e := range joined.Unwrap() {
		var le *LaneError
		if !errors.As(e, &le) || !dropped[le.Lane] || !errors.Is(e, hookErr) {
			t.Fatalf("unexpected lane error %v", e)
		}
	}
}

// TestRunBatchEmptyAndSingle covers the degenerate batch widths: zero
// designs short-circuit, and K=1 is exactly RunFast.
func TestRunBatchEmptyAndSingle(t *testing.T) {
	d := DefaultDesign()
	src := vibration.Sine{Amplitude: 0.6, Freq: d.Harv.ResonantFreq(d.Harv.GapMax)}
	cfg := Config{Horizon: 1, Source: src}

	got, err := RunBatch(nil, cfg)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch: results %v err %v, want empty and nil", got, err)
	}

	got, err = RunBatch([]Design{d}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunFast(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareLane(t, "single", want, got[0])
}

// FuzzBatchLaneEquivalence compares RunBatch at K=1 against RunFast
// byte-for-byte over fuzzed slow-side and excitation parameters.
func FuzzBatchLaneEquivalence(f *testing.F) {
	f.Add(1.0, 5.0, 3.0, 47.0, false)
	f.Add(2.0, 2.0, 3.2, 45.0, true)
	f.Add(0.5, 15.0, 2.8, 52.0, true)
	f.Fuzz(func(t *testing.T, horizon, period, vth, freq float64, tuned bool) {
		if !(horizon > 0.01 && horizon < 3) || !(period > 0.1 && period < 30) ||
			!(vth > 1 && vth < 5) || !(freq > 20 && freq < 80) {
			t.Skip()
		}
		d := DefaultDesign()
		d.Node.Period = period
		d.Policy = node.ThresholdPolicy{VThreshold: vth}
		d.InitialStoreV = 3.4
		if tuned {
			tc := tuner.DefaultConfig()
			tc.Interval = 0.5
			tc.EstimatorWin = 0.25
			d.Tuner = &tc
		}
		cfg := Config{Horizon: horizon, Source: vibration.Sine{Amplitude: 0.6, Freq: freq},
			RecordWaveforms: true, Decimate: 25}

		want, errFast := RunFast(d, cfg)
		got, errBatch := RunBatch([]Design{d}, cfg)
		if (errFast == nil) != (errBatch == nil) {
			t.Fatalf("error disagreement: RunFast %v vs RunBatch %v", errFast, errBatch)
		}
		if errFast != nil {
			return
		}
		compareLane(t, "fuzz", want, got[0])
	})
}

// TestRunBatchSharesTrajectories checks the trajectory partition: untuned
// lanes with the same harvester and starting gap step one shared fast
// trajectory, a different starting gap or a tuner gets its own, and every
// lane — waveforms included — stays bit-identical to its solo run.
func TestRunBatchSharesTrajectories(t *testing.T) {
	base := DefaultDesign()
	base.InitialStoreV = 3.3
	src := vibration.Sine{Amplitude: 0.6, Freq: base.Harv.ResonantFreq(base.Harv.GapMax)}
	cfg := Config{Horizon: 2, Source: src, RecordWaveforms: true, Decimate: 20}

	designs := slowSideVariants(base, 6) // one shared trajectory
	moved := base
	moved.InitialGap = 0.8 * base.Harv.GapMax // own starting gap: second trajectory
	tuned := base
	tc := tuner.DefaultConfig()
	tc.Interval = 0.5
	tc.EstimatorWin = 0.25
	tuned.Tuner = &tc // tuned lanes never share
	designs = append(designs, moved, moved, tuned, tuned)

	got, stats, err := RunBatchStats(designs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Lanes != len(designs) || stats.Trajectories != 4 || stats.Groups != 1 {
		t.Fatalf("stats = %+v, want %d lanes on 4 trajectories in 1 group", stats, len(designs))
	}
	for i, d := range designs {
		want, err := RunFast(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		compareLane(t, fmt.Sprintf("lane%d", i), want, got[i])
	}
}

// FuzzBatchLaneSharing runs K=2..6 lanes under one excitation with fuzzed
// per-lane period, threshold and store size, tuned and untuned lanes mixed
// by a bit mask, and compares every lane byte for byte against RunFast.
// The untuned lanes must share a single trajectory, so the fuzzer
// exercises lanes reading a fast state another lane's setup created.
func FuzzBatchLaneSharing(f *testing.F) {
	f.Add(uint8(0), int64(1), 1.0, 47.0, uint8(0))
	f.Add(uint8(2), int64(7), 1.5, 45.0, uint8(0b00101))
	f.Add(uint8(4), int64(42), 0.5, 52.0, uint8(0b10000))
	f.Fuzz(func(t *testing.T, k uint8, seed int64, horizon, freq float64, tunedMask uint8) {
		if !(horizon > 0.01 && horizon < 2) || !(freq > 20 && freq < 80) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		designs := make([]Design, 2+int(k%5))
		tunedLanes, untuned := 0, 0
		for i := range designs {
			d := DefaultDesign()
			d.Node.Period = 0.5 + 20*rng.Float64()
			d.Policy = node.ThresholdPolicy{VThreshold: 2.6 + rng.Float64()}
			d.Store.C = 0.01 + 0.09*rng.Float64()
			d.InitialStoreV = 3.3
			if tunedMask>>i&1 == 1 {
				tc := tuner.DefaultConfig()
				tc.Interval = 0.5
				tc.EstimatorWin = 0.25
				d.Tuner = &tc
				tunedLanes++
			} else {
				untuned++
			}
			designs[i] = d
		}
		cfg := Config{Horizon: horizon, Source: vibration.Sine{Amplitude: 0.6, Freq: freq},
			RecordWaveforms: true, Decimate: 25}

		got, stats, err := RunBatchStats(designs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantTrajs := tunedLanes
		if untuned > 0 {
			wantTrajs++
		}
		if stats.Trajectories != wantTrajs {
			t.Fatalf("stats = %+v, want %d trajectories (%d tuned lanes, %d untuned)",
				stats, wantTrajs, tunedLanes, untuned)
		}
		for i, d := range designs {
			want, err := RunFast(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			compareLane(t, fmt.Sprintf("lane%d", i), want, got[i])
			if a, b := resultText(want), resultText(got[i]); a != b {
				t.Fatalf("lane %d: result bytes differ from RunFast:\n%s\n%s", i, a, b)
			}
		}
	})
}

// resultText prints a result with its wall-clock Elapsed zeroed. %#v
// prints every float in its shortest round-tripping form, so equal text
// means bit-equal fields — with no tolerance, unlike compareResults.
func resultText(r *Result) string {
	c := *r
	c.Elapsed = 0
	return fmt.Sprintf("%#v", c)
}

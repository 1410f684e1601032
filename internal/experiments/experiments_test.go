package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/simcache"
)

// quick is the reduced configuration used for the test suite.
var quick = Config{Quick: true, Seed: 1}

func TestFigF1TunedVsUntuned(t *testing.T) {
	fig, err := FigF1TunedVsUntuned(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	untuned, tuned := fig.Series[0], fig.Series[1]
	// Shape claim: at the untuned resonance both are comparable; far above
	// it the tuned harvester must win decisively.
	last := len(tuned.Y) - 1
	if tuned.Y[last] < 3*untuned.Y[last] {
		t.Fatalf("tuned power %v not ≫ untuned %v at the high end", tuned.Y[last], untuned.Y[last])
	}
	// Tuned power must exceed untuned at every frequency above the band
	// start (allowing equality near f_lo).
	for i := range tuned.Y {
		if tuned.Y[i] < untuned.Y[i]*0.8 {
			t.Fatalf("tuned below untuned at %v Hz", tuned.X[i])
		}
	}
}

func TestTabT1EngineSpeedup(t *testing.T) {
	tab, err := TabT1EngineSpeedup(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Speedup column (index 3) must show ≥10× on every row.
	for _, row := range tab.Rows {
		var speed float64
		if _, err := sscan(row[3], &speed); err != nil {
			t.Fatalf("bad speedup cell %q", row[3])
		}
		if speed < 10 {
			t.Fatalf("speedup %v below 10x", speed)
		}
	}
}

func TestTabA1StepSize(t *testing.T) {
	tab, err := TabA1StepSize(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Error must grow (or stay flat) with step size.
	var prev float64 = -1
	for _, row := range tab.Rows {
		var rmse float64
		if _, err := sscan(row[2], &rmse); err != nil {
			t.Fatalf("bad cell %q", row[2])
		}
		if prev >= 0 && rmse < prev*0.2 {
			t.Fatalf("error shrank sharply with larger steps: %v after %v", rmse, prev)
		}
		prev = rmse
	}
}

func TestFigF4TuningTransient(t *testing.T) {
	fig, err := FigF4TuningTransient(quick)
	if err != nil {
		t.Fatal(err)
	}
	res := fig.Series[0]
	// The resonance must end near the final excitation frequency (70 Hz in
	// the quick profile).
	final := res.Y[len(res.Y)-1]
	if final < 65 || final > 75 {
		t.Fatalf("final resonance %v Hz, want ≈70", final)
	}
	// And must have started at the untuned 45 Hz.
	if res.Y[0] > 50 {
		t.Fatalf("initial resonance %v Hz, want ≈45", res.Y[0])
	}
}

func TestTabT2DesignComparison(t *testing.T) {
	tab, err := TabT2DesignComparison(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 designs", len(tab.Rows))
	}
	// Every quadratic-design fit should be respectable on the smooth
	// stored-energy response.
	for _, row := range tab.Rows {
		if !strings.Contains(row[0], "quadratic") {
			continue
		}
		var r2 float64
		if _, err := sscan(row[2], &r2); err != nil {
			t.Fatalf("bad R² cell %q", row[2])
		}
		if r2 < 0.9 {
			t.Fatalf("%s R² = %v, want ≥0.9", row[0], r2)
		}
	}
}

func TestTabT3RSMAccuracy(t *testing.T) {
	tab, err := TabT3RSMAccuracy(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 responses", len(tab.Rows))
	}
	// The stored-energy surface must validate tightly.
	for _, row := range tab.Rows {
		if row[0] != string("stored_energy_J") {
			continue
		}
		var rel float64
		if _, err := sscan(row[4], &rel); err != nil {
			t.Fatalf("bad cell %q", row[4])
		}
		if rel > 20 {
			t.Fatalf("stored-energy mean relative error %v%% too large", rel)
		}
	}
}

func TestTabT4ExplorationSpeed(t *testing.T) {
	// A private cache keeps the timed simulations real: a repeated run
	// (-count=2) would otherwise answer them from the shared DefaultRunner.
	shared := core.DefaultRunner
	core.DefaultRunner = simcache.New(simcache.Options{})
	t.Cleanup(func() { core.DefaultRunner = shared })
	tab, err := TabT4ExplorationSpeed(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var speed float64
	if _, err := sscan(tab.Rows[1][4], &speed); err != nil {
		t.Fatalf("bad speedup cell %q", tab.Rows[1][4])
	}
	if speed < 100 {
		t.Fatalf("RSM speedup %v×, want ≥100×", speed)
	}
}

func TestFigF2Surface(t *testing.T) {
	fig, err := FigF2Surface(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 6 {
		t.Fatalf("series = %d, want 3 slices × (rsm + sim)", len(fig.Series))
	}
	// Bigger supercap slice must store more energy everywhere (rsm
	// series 0 = cap −1, series 4 = cap +1 rsm).
	loCap, hiCap := fig.Series[0], fig.Series[4]
	for i := range loCap.Y {
		if hiCap.Y[i] <= loCap.Y[i] {
			t.Fatalf("stored energy not increasing with capacitance at index %d", i)
		}
	}
}

func TestFigF3Tradeoff(t *testing.T) {
	fig, err := FigF3Tradeoff(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	all, front := fig.Series[0], fig.Series[1]
	if len(front.X) == 0 || len(front.X) > len(all.X) {
		t.Fatalf("front size %d vs %d candidates", len(front.X), len(all.X))
	}
}

func TestTabT7ANOVA(t *testing.T) {
	tab, err := TabT7ANOVA(quick)
	if err != nil {
		t.Fatal(err)
	}
	// 3 overall rows + 14 term rows for the 4-factor quadratic.
	if len(tab.Rows) != 3+14 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][0] != "regression" {
		t.Fatalf("first row %q", tab.Rows[0][0])
	}
	// The supercap main effect must be highly significant for stored
	// energy.
	found := false
	for _, row := range tab.Rows {
		if strings.TrimSpace(row[0]) == "supercap" {
			found = true
			if row[5] == "" {
				t.Fatalf("supercap not significant: %v", row)
			}
		}
	}
	if !found {
		t.Fatal("supercap term missing from the ANOVA")
	}
}

func TestFigF5BuildCost(t *testing.T) {
	fig, err := FigF5BuildCost(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	cost := fig.Series[1]
	// Simulation cost must grow with design size.
	if cost.Y[len(cost.Y)-1] <= cost.Y[0] {
		t.Fatalf("cost not increasing: %v", cost.Y)
	}
}

func TestTabT5Optimizers(t *testing.T) {
	tab, err := TabT5Optimizers(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The RSM flow must be competitive: within 30 % of the best confirmed
	// objective while using a bounded simulation budget.
	var objs []float64
	for _, row := range tab.Rows {
		var v float64
		if _, err := sscan(row[1], &v); err != nil {
			t.Fatalf("bad objective cell %q", row[1])
		}
		objs = append(objs, v)
	}
	best := objs[0]
	for _, v := range objs[1:] {
		if v > best {
			best = v
		}
	}
	if best > 0 && objs[0] < 0.7*best {
		t.Fatalf("RSM objective %v not competitive with best %v", objs[0], best)
	}
}

func TestTabT6Scenarios(t *testing.T) {
	tab, err := TabT6Scenarios(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 3 scenarios × 2 configs", len(tab.Rows))
	}
	// For each scenario, the optimized objective (last column) must be at
	// least as good as the default's (small tolerance for RSM error).
	for i := 0; i < 6; i += 2 {
		var defObj, optObj float64
		if _, err := sscan(tab.Rows[i][5], &defObj); err != nil {
			t.Fatalf("bad cell %q", tab.Rows[i][5])
		}
		if _, err := sscan(tab.Rows[i+1][5], &optObj); err != nil {
			t.Fatalf("bad cell %q", tab.Rows[i+1][5])
		}
		if optObj < defObj-2 {
			t.Fatalf("scenario %q: optimized %v worse than default %v", tab.Rows[i][0], optObj, defObj)
		}
	}
}

func TestTabA5MultiplierModels(t *testing.T) {
	tab, err := TabA5MultiplierModels(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var circV, behV float64
	if _, err := sscan(tab.Rows[0][1], &circV); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(tab.Rows[1][1], &behV); err != nil {
		t.Fatal(err)
	}
	// Same ballpark final voltage.
	if behV < circV/2 || behV > circV*2 {
		t.Fatalf("behavioural %v V vs circuit %v V: more than 2× apart", behV, circV)
	}
	// The behavioural model must be orders of magnitude cheaper.
	var circMS, behMS float64
	if _, err := sscan(tab.Rows[0][3], &circMS); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(tab.Rows[1][3], &behMS); err != nil {
		t.Fatal(err)
	}
	if behMS*10 > circMS {
		t.Fatalf("behavioural %v ms not ≪ circuit %v ms", behMS, circMS)
	}
}

// sscan parses one float from a table cell.
func sscan(cell string, out *float64) (int, error) {
	return fmtSscan(cell, out)
}

func fmtSscan(cell string, out *float64) (int, error) {
	return fmt.Sscan(cell, out)
}

func TestTabT8Refinement(t *testing.T) {
	tab, err := TabT8Refinement(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 region scales", len(tab.Rows))
	}
	var first, last float64
	if _, err := sscan(tab.Rows[0][3], &first); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(tab.Rows[2][3], &last); err != nil {
		t.Fatal(err)
	}
	// Refinement must not make the inner-region prediction worse.
	if last > first {
		t.Fatalf("refined RMSE %v worse than full-region %v", last, first)
	}
}

func TestTabA6Estimators(t *testing.T) {
	tab, err := TabA6Estimators(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// On the clean tone (first two rows) both estimators must re-tune the
	// harvester into the neighbourhood of 64 Hz and harvest something.
	for _, row := range tab.Rows[:2] {
		var fres, harvested float64
		if _, err := sscan(row[4], &fres); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(row[1], &harvested); err != nil {
			t.Fatal(err)
		}
		if fres < 58 || fres > 70 {
			t.Fatalf("%s left resonance at %v Hz", row[0], fres)
		}
		if harvested <= 0 {
			t.Fatalf("%s harvested nothing", row[0])
		}
	}
	// The noisy rows are reported, not asserted: the self-locking
	// phenomenon they expose is the table's finding.
}

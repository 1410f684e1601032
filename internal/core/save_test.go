package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/doe"
	"repro/internal/rsm"
)

func buildTestSurfaces(t *testing.T) (*Problem, *Surfaces) {
	t.Helper()
	p := quickProblem()
	design, err := doe.CentralComposite(3, doe.CCF, 2)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := p.RunDesign(context.Background(), design, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.BuildSurfaces(ds, rsm.FullQuadratic(3))
	if err != nil {
		t.Fatal(err)
	}
	return p, s
}

func TestSaveRoundTrip(t *testing.T) {
	_, s := buildTestSurfaces(t)
	saved := s.Save("CCF", 17)
	data, err := saved.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "stored_energy_J") {
		t.Fatal("JSON missing response id")
	}
	back, err := DecodeSurfaces(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.DesignName != "CCF" || back.Runs != 17 {
		t.Fatalf("provenance lost: %+v", back)
	}
	// Predictions must match the live fit exactly.
	pt := []float64{0.3, -0.4, 0.7}
	for id, fit := range s.Fits {
		want := fit.Predict(pt)
		got, err := back.Predict(id, pt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("%s: saved %v vs live %v", id, got, want)
		}
	}
}

func TestSavedPredictNatural(t *testing.T) {
	_, s := buildTestSurfaces(t)
	saved := s.Save("CCF", 17)
	// Natural at factor centres must equal coded origin.
	nat := make([]float64, len(saved.Factors))
	for i, f := range saved.Factors {
		nat[i] = (f.Min + f.Max) / 2
	}
	a, err := saved.PredictNatural(RespStoredEnergy, nat)
	if err != nil {
		t.Fatal(err)
	}
	b, err := saved.Predict(RespStoredEnergy, make([]float64, len(saved.Factors)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("natural/coded mismatch: %v vs %v", a, b)
	}
}

func TestSavedValidation(t *testing.T) {
	if _, err := DecodeSurfaces([]byte("{")); err == nil {
		t.Fatal("bad JSON must error")
	}
	if _, err := DecodeSurfaces([]byte(`{"factors":[],"terms":[[0]],"coef":{"x":[1]}}`)); err == nil {
		t.Fatal("no factors must error")
	}
	if _, err := DecodeSurfaces([]byte(`{"factors":[{"Name":"a","Min":0,"Max":1}],"terms":[[0,0]],"coef":{"x":[1]}}`)); err == nil {
		t.Fatal("term width mismatch must error")
	}
	if _, err := DecodeSurfaces([]byte(`{"factors":[{"Name":"a","Min":0,"Max":1}],"terms":[[0]],"coef":{"x":[1,2]}}`)); err == nil {
		t.Fatal("coefficient count mismatch must error")
	}
	if _, err := DecodeSurfaces([]byte(`{"factors":[{"Name":"a","Min":0,"Max":1}],"terms":[[0]],"coef":{}}`)); err == nil {
		t.Fatal("no coefficients must error")
	}
}

func TestSavedErrors(t *testing.T) {
	_, s := buildTestSurfaces(t)
	saved := s.Save("CCF", 17)
	if _, err := saved.Predict(ResponseID("nope"), []float64{0, 0, 0}); err == nil {
		t.Fatal("unknown response must error")
	}
	if _, err := saved.Predict(RespPackets, []float64{0}); err == nil {
		t.Fatal("dimension mismatch must error")
	}
	if _, err := saved.PredictNatural(RespPackets, []float64{0}); err == nil {
		t.Fatal("dimension mismatch must error")
	}
}

func TestSavedResponsesSorted(t *testing.T) {
	_, s := buildTestSurfaces(t)
	saved := s.Save("CCF", 17)
	ids := saved.Responses()
	if len(ids) != len(s.Fits) {
		t.Fatalf("responses = %d", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			t.Fatal("responses not sorted")
		}
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	_, s := buildTestSurfaces(t)
	saved := s.Save("CCF", 17)
	points := [][]float64{
		{0, 0, 0},
		{0.5, -0.5, 0.25},
		{1, 1, -1},
		{-0.3, 0.8, 0.1},
	}
	for _, id := range saved.Responses() {
		batch, err := saved.PredictBatch(id, points)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != len(points) {
			t.Fatalf("%s: %d values for %d points", id, len(batch), len(points))
		}
		for i, x := range points {
			want, err := saved.Predict(id, x)
			if err != nil {
				t.Fatal(err)
			}
			if batch[i] != want {
				t.Fatalf("%s point %d: batch %v vs single %v", id, i, batch[i], want)
			}
		}
	}
	// Errors: unknown response, ragged point.
	if _, err := saved.PredictBatch(ResponseID("nope"), points); err == nil {
		t.Fatal("unknown response must error")
	}
	if _, err := saved.PredictBatch(RespPackets, [][]float64{{0, 0}}); err == nil {
		t.Fatal("dimension mismatch must error")
	}
}

func TestPredictorSharedScratch(t *testing.T) {
	_, s := buildTestSurfaces(t)
	saved := s.Save("CCF", 17)
	pred, err := saved.Predictor(RespStoredEnergy)
	if err != nil {
		t.Fatal(err)
	}
	// Repeated calls with different points must not bleed state.
	a1 := pred([]float64{0.1, 0.2, 0.3})
	pred([]float64{-1, 1, -1})
	a2 := pred([]float64{0.1, 0.2, 0.3})
	if a1 != a2 {
		t.Fatalf("predictor not pure: %v vs %v", a1, a2)
	}
	want, err := saved.Predict(RespStoredEnergy, []float64{0.1, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if a1 != want {
		t.Fatalf("predictor %v vs Predict %v", a1, want)
	}
	if _, err := saved.Predictor(ResponseID("nope")); err == nil {
		t.Fatal("unknown response must error")
	}
}

func TestEncodePoint(t *testing.T) {
	_, s := buildTestSurfaces(t)
	saved := s.Save("CCF", 17)
	nat := make([]float64, len(saved.Factors))
	for i, f := range saved.Factors {
		nat[i] = f.Min // natural minimum is coded −1
	}
	coded, err := saved.EncodePoint(nat)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range coded {
		if math.Abs(c+1) > 1e-12 {
			t.Fatalf("coordinate %d: %v, want -1", i, c)
		}
	}
	if _, err := saved.EncodePoint([]float64{0}); err == nil {
		t.Fatal("dimension mismatch must error")
	}
}

func TestSaveWithDataRefit(t *testing.T) {
	p := quickProblem()
	design, err := doe.CentralComposite(3, doe.CCF, 2)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := p.RunDesign(context.Background(), design, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.BuildSurfaces(ds, rsm.FullQuadratic(3))
	if err != nil {
		t.Fatal(err)
	}
	saved := s.SaveWithData(ds)
	if !saved.HasData() {
		t.Fatal("data not embedded")
	}
	data, err := saved.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSurfaces(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.HasData() {
		t.Fatal("data lost in round trip")
	}
	fit, err := back.Refit(RespStoredEnergy)
	if err != nil {
		t.Fatal(err)
	}
	// Refit coefficients must match the originals.
	orig := s.Fits[RespStoredEnergy].Coef
	for i := range orig {
		if math.Abs(fit.Coef[i]-orig[i]) > 1e-9*(1+math.Abs(orig[i])) {
			t.Fatalf("coefficient %d drifted: %v vs %v", i, fit.Coef[i], orig[i])
		}
	}
	// Refit errors.
	if _, err := back.Refit(ResponseID("nope")); err == nil {
		t.Fatal("unknown response must error")
	}
	plain := s.Save("CCF", design.N())
	if plain.HasData() {
		t.Fatal("plain save must not embed data")
	}
	if _, err := plain.Refit(RespStoredEnergy); err == nil {
		t.Fatal("refit without data must error")
	}
}

// TestDecodeSurfacesBoundsPowers: an uploaded basis may not carry
// exponents outside 0..maxTermPower. A huge one would make every
// prediction a long loop; a negative one is meaningless.
func TestDecodeSurfacesBoundsPowers(t *testing.T) {
	for _, tc := range []struct {
		name  string
		power string
		ok    bool
	}{
		{"cubic", "3", true},
		{"huge", "300000000", false},
		{"negative", "-1", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			doc := `{"factors":[{"name":"a","min":0,"max":1}],"terms":[[0],[` + tc.power + `]],"coef":{"p":[1,1]}}`
			_, err := DecodeSurfaces([]byte(doc))
			if tc.ok && err != nil {
				t.Fatalf("power %s rejected: %v", tc.power, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("power %s accepted", tc.power)
			}
		})
	}
}

// TestPredictBatchAllocs pins the batch predictor's allocations: the basis
// shares the saved exponent vectors instead of copying one per term.
func TestPredictBatchAllocs(t *testing.T) {
	m := rsm.FullQuadratic(4)
	ss := &SavedSurfaces{Coef: map[ResponseID][]float64{RespStoredEnergy: make([]float64, len(m.Terms))}}
	for j := 0; j < m.K; j++ {
		ss.Factors = append(ss.Factors, doe.Factor{Name: fmt.Sprintf("x%d", j+1), Min: 0, Max: 1})
	}
	for _, term := range m.Terms {
		ss.Terms = append(ss.Terms, term.Powers)
	}
	points := [][]float64{{0, 0, 0, 0}, {0.5, -0.5, 0.25, 1}}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ss.PredictBatch(RespStoredEnergy, points); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("PredictBatch on %d terms: %v allocations per call, want at most 4", len(m.Terms), allocs)
	}
}

// FuzzDecodeSurfaces: every document DecodeSurfaces accepts must predict
// each of its responses at the coded centre and encode the factor
// midpoints, without panicking.
func FuzzDecodeSurfaces(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ss, err := DecodeSurfaces(data)
		if err != nil {
			return
		}
		centre := [][]float64{make([]float64, len(ss.Factors))}
		for _, id := range ss.Responses() {
			if _, err := ss.PredictBatch(id, centre); err != nil {
				t.Fatalf("accepted model cannot predict %q at the centre: %v", id, err)
			}
		}
		mid := make([]float64, len(ss.Factors))
		for i, fac := range ss.Factors {
			mid[i] = (fac.Min + fac.Max) / 2
		}
		if _, err := ss.EncodePoint(mid); err != nil {
			t.Fatalf("accepted model cannot encode its midpoint: %v", err)
		}
	})
}

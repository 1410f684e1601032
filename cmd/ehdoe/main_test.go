package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rsm"
	"repro/internal/serve"
)

// TestPipeline drives every subcommand end to end against a real (small)
// build: the closest thing to a user session.
func TestPipeline(t *testing.T) {
	dir := t.TempDir()
	model := filepath.Join(dir, "surfaces.json")

	if err := cmdBuild([]string{"-horizon", "10", "-out", model}); err != nil {
		t.Fatalf("build: %v", err)
	}
	if _, err := os.Stat(model); err != nil {
		t.Fatalf("model file missing: %v", err)
	}
	if err := cmdInfo([]string{"-model", model}); err != nil {
		t.Fatalf("info: %v", err)
	}
	if err := cmdPredict([]string{"-model", model, "-at", "period=5,vth=3.0"}); err != nil {
		t.Fatalf("predict: %v", err)
	}
	if err := cmdSweep([]string{"-model", model, "-response", "packets", "-factor", "period", "-points", "5"}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if _, err := cmdOptimize([]string{"-model", model, "-response", "stored_energy_J"}); err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if _, err := cmdValidate([]string{"-model", model, "-n", "2"}); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if err := cmdANOVA([]string{"-model", model, "-response", "stored_energy_J"}); err != nil {
		t.Fatalf("anova: %v", err)
	}
}

func TestBuildRejectsUnknownDesign(t *testing.T) {
	if err := cmdBuild([]string{"-design", "nope", "-out", filepath.Join(t.TempDir(), "x.json")}); err == nil {
		t.Fatal("unknown design must fail")
	}
}

func TestLoadModelErrors(t *testing.T) {
	if _, err := loadModel(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file must fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadModel(bad); err == nil {
		t.Fatal("corrupt file must fail")
	}
}

func TestParsePoint(t *testing.T) {
	ss := &core.SavedSurfaces{}
	ss.Factors = core.StandardProblem(0.6, 10).Factors

	nat, err := parsePoint(ss, "")
	if err != nil {
		t.Fatal(err)
	}
	// Defaults to factor centres.
	if nat[0] != (2+20)/2.0 {
		t.Fatalf("default period = %v", nat[0])
	}
	nat, err = parsePoint(ss, "period=7, vth=2.9")
	if err != nil {
		t.Fatal(err)
	}
	if nat[0] != 7 || nat[2] != 2.9 {
		t.Fatalf("parsed = %v", nat)
	}
	if _, err := parsePoint(ss, "bogus"); err == nil {
		t.Fatal("malformed assignment must fail")
	}
	if _, err := parsePoint(ss, "nope=1"); err == nil {
		t.Fatal("unknown factor must fail")
	}
	if _, err := parsePoint(ss, "period=abc"); err == nil {
		t.Fatal("non-numeric value must fail")
	}
	if _, err := parsePoint(ss, "period=5,period=9"); err == nil || !strings.Contains(err.Error(), "period") {
		t.Fatalf("repeated factor must fail naming it, got %v", err)
	}
}

func TestSweepErrors(t *testing.T) {
	dir := t.TempDir()
	model := filepath.Join(dir, "s.json")
	if err := cmdBuild([]string{"-horizon", "10", "-out", model}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSweep([]string{"-model", model, "-factor", "nope"}); err == nil {
		t.Fatal("unknown sweep factor must fail")
	}
	if err := cmdSweep([]string{"-model", model, "-factor", "period", "-points", "1"}); err == nil {
		t.Fatal("single-point sweep must fail")
	}
}

func TestOptimizeUnknownResponse(t *testing.T) {
	dir := t.TempDir()
	model := filepath.Join(dir, "s.json")
	if err := cmdBuild([]string{"-horizon", "10", "-out", model}); err != nil {
		t.Fatal(err)
	}
	if _, err := cmdOptimize([]string{"-model", model, "-response", "nope"}); err == nil {
		t.Fatal("unknown response must fail")
	}
	if err := cmdANOVA([]string{"-model", model, "-response", "nope"}); err == nil {
		t.Fatal("unknown response must fail")
	}
}

// smallModel builds a CCF model at a short horizon into a temp file and
// returns its path and contents.
func smallModel(t *testing.T) (string, *core.SavedSurfaces) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.json")
	if err := cmdBuild([]string{"-horizon", "3", "-out", path}); err != nil {
		t.Fatal(err)
	}
	ss, err := loadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, ss
}

func writeModel(t *testing.T, ss *core.SavedSurfaces) string {
	t.Helper()
	data, err := ss.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestValidateScoresSharedResponses: a response the problem never
// simulates (final_store_V here) is left out of the validation table
// instead of being scored against 0.
func TestValidateScoresSharedResponses(t *testing.T) {
	_, ss := smallModel(t)
	ss.Coef[core.RespFinalStoreV] = ss.Coef[core.RespStoredEnergy]
	ss.R2[core.RespFinalStoreV] = 1
	rep, err := cmdValidate([]string{"-model", writeModel(t, ss), "-n", "2"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, row := range rep.Rows {
		got = append(got, string(row.Response))
	}
	want := []string{}
	for _, id := range core.StandardProblem(0.6, 3).Responses {
		want = append(want, string(id))
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("validated %v, want %v", got, want)
	}
}

// TestValidateRejectsFactorMismatch: a 3-factor model cannot be validated
// against the 4-factor standard problem.
func TestValidateRejectsFactorMismatch(t *testing.T) {
	_, ss := smallModel(t)
	m := rsm.FullQuadratic(3)
	three := &core.SavedSurfaces{Factors: ss.Factors[:3], Horizon: 3,
		Coef: map[core.ResponseID][]float64{core.RespStoredEnergy: make([]float64, m.P())}}
	for _, term := range m.Terms {
		three.Terms = append(three.Terms, term.Powers)
	}
	_, err := cmdValidate([]string{"-model", writeModel(t, three), "-n", "2"})
	if !errors.Is(err, core.ErrModelMismatch) {
		t.Fatalf("err = %v, want a model mismatch", err)
	}
}

// TestOptimizeMatchesAPI: ehdoe optimize and POST /v1/optimize run one
// search, so the same model and seed give bit-identical optima,
// predictions and evaluation counts.
func TestOptimizeMatchesAPI(t *testing.T) {
	path, ss := smallModel(t)
	srv, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(time.Second)
	srv.Registry().Set("m", ss)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, seed := range []int64{1, 7, 99} {
		for _, minimize := range []bool{false, true} {
			args := []string{"-model", path, "-response", "stored_energy_J", "-seed", strconv.FormatInt(seed, 10)}
			if minimize {
				args = append(args, "-min")
			}
			cli, err := cmdOptimize(args)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := json.Marshal(serve.OptimizeRequest{Model: "m", Response: "stored_energy_J", Minimize: minimize, Seed: seed})
			resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var api serve.OptimizeResponse
			err = json.NewDecoder(resp.Body).Decode(&api)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			same := cli.Evals == api.Evals && math.Float64bits(cli.Predicted) == math.Float64bits(api.Predicted)
			for i := range cli.Coded {
				same = same && math.Float64bits(cli.Coded[i]) == math.Float64bits(api.Coded[i])
			}
			if !same {
				t.Fatalf("seed %d min=%v: CLI %v %v (%d evals), API %v %v (%d evals)",
					seed, minimize, cli.Coded, cli.Predicted, cli.Evals, api.Coded, api.Predicted, api.Evals)
			}
		}
	}
}

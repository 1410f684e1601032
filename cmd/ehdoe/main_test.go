package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
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
	if err := cmdOptimize([]string{"-model", model, "-response", "stored_energy_J"}); err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if err := cmdValidate([]string{"-model", model, "-n", "2"}); err != nil {
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
	if err := cmdOptimize([]string{"-model", model, "-response", "nope"}); err == nil {
		t.Fatal("unknown response must fail")
	}
	if err := cmdANOVA([]string{"-model", model, "-response", "nope"}); err == nil {
		t.Fatal("unknown response must fail")
	}
}

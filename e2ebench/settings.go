package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"
)

// settingsJSON fixes every workload constant the benchmark runs with, and
// records why each workload exists and which end-to-end metric each
// per-layer metric should move.
//
//go:embed settings.json
var settingsJSON []byte

// settings is the parsed settings.json; the documentation-only sections
// are kept as raw strings so tests can check them against BENCHMARK.json.
type settings struct {
	HorizonS      float64 `json:"horizon_s"`
	SetupRepeats  int     `json:"setup_repeats"`
	FleetWorkers  int     `json:"fleet_workers"`
	FleetPollMs   float64 `json:"fleet_poll_ms"`
	JobPollMs     float64 `json:"job_poll_ms"`
	WarmPool      int     `json:"warm_pool_per_path"`
	ExciteMin     float64 `json:"excite_min"`
	ExciteMax     float64 `json:"excite_max"`
	Reads         reads   `json:"reads"`
	RebuildEveryS float64 `json:"rebuild_interval_s"`
	// BuildTailPct is the percentile build_tail_ms reports, per workload.
	BuildTailPct map[string]float64 `json:"build_tail_pct"`

	Workloads map[string]string `json:"workloads"`
	EndToEnd  map[string]string `json:"end_to_end"`
	Layers    map[string]string `json:"layers"`
}

// reads configures the read stream: the reference rate every workload
// serves, the serve-mix ladder above it, the good-request limit, and the
// shape of the generated bodies.
type reads struct {
	ReferenceRPS   float64            `json:"reference_rps"`
	LadderRPS      []float64          `json:"ladder_rps"`
	ReferenceShare float64            `json:"reference_share"`
	ProbeShare     float64            `json:"probe_share"`
	LimitMs        float64            `json:"latency_limit_ms"`
	TargetShare    float64            `json:"target_share"`
	Mix            map[string]float64 `json:"mix"`
	HotSet         int                `json:"hot_set"`
	HotShare       float64            `json:"hot_share"`
	PredictMax     int                `json:"predict_points_max"`
	SweepMin       int                `json:"sweep_points_min"`
	SweepMax       int                `json:"sweep_points_max"`
}

func loadSettings() (settings, error) {
	var s settings
	if err := json.Unmarshal(settingsJSON, &s); err != nil {
		return s, fmt.Errorf("settings.json: %w", err)
	}
	r := s.Reads
	switch {
	case s.HorizonS <= 0 || s.SetupRepeats < 1 || s.FleetWorkers < 1 || s.FleetPollMs <= 0 || s.JobPollMs <= 0 || s.WarmPool < 1:
		return s, fmt.Errorf("settings.json: horizon, setup repeats, fleet, poll and warm pool must be positive")
	case len(r.LadderRPS) == 0 || r.LadderRPS[0] != r.ReferenceRPS:
		return s, fmt.Errorf("settings.json: the ladder must start at the reference rate")
	case r.ReferenceShare <= 0 || r.ReferenceShare > 1 || r.ProbeShare <= 0 || r.ProbeShare >= 1 || r.TargetShare <= 0 || r.TargetShare > 1:
		return s, fmt.Errorf("settings.json: reference_share, probe_share and target_share must lie in (0, 1]")
	case r.HotSet < 2 || r.PredictMax < 1 || r.SweepMin < 2 || r.SweepMax < r.SweepMin:
		return s, fmt.Errorf("settings.json: bad body shape")
	}
	for _, wl := range workloadNames {
		if !isTailCandidate(s.BuildTailPct[wl]) {
			return s, fmt.Errorf("settings.json: build_tail_pct of %s must be one of %v", wl, tailCandidates)
		}
	}
	return s, nil
}

func isTailCandidate(p float64) bool {
	for _, c := range tailCandidates {
		if p == c {
			return true
		}
	}
	return false
}

func msDur(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func (s settings) jobPoll() time.Duration   { return msDur(s.JobPollMs) }
func (s settings) fleetPoll() time.Duration { return msDur(s.FleetPollMs) }
func (r reads) limit() time.Duration        { return msDur(r.LimitMs) }

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/serve"
)

// fixedRuns is the run count of the default fixed design (a face-centred
// composite over the four factors of core.StandardProblem).
func fixedRuns(set settings) (int, error) {
	d, err := core.NamedDesign("ccf", len(core.StandardProblem(0.6, set.HorizonS).Factors), 0, 0)
	if err != nil {
		return 0, err
	}
	return d.N(), nil
}

// check runs the output checks after the measured region. Each returned
// string is one failed check.
func (p *pass) check(s *stack, gen *bodies) []string {
	var bad []string
	n, err := fixedRuns(p.cfg.set)
	if err != nil {
		return []string{err.Error()}
	}
	bad = append(bad, checkJobs(p.builds, n)...)
	bad = append(bad, checkServed(s, gen.hot)...)
	bad = append(bad, checkIdentity(s, p.cfg, gen.hot[0])...)
	return bad
}

// checkJobs: every build reached done with the runs its path implies.
func checkJobs(builds []buildSample, fixed int) []string {
	var bad []string
	for _, b := range builds {
		v := b.view
		switch {
		case b.err != nil:
			bad = append(bad, fmt.Sprintf("build %s (%s): %v", b.id, b.path, b.err))
		case v.State != string(serve.JobDone):
			bad = append(bad, fmt.Sprintf("job %s (%s) ended %s: %s", v.ID, b.path, v.State, v.Error))
		case b.path == "adaptive":
			if v.Adaptive == nil || v.Runs != v.Adaptive.PointsSimulated || v.Runs < 1 || v.Runs > fixed {
				bad = append(bad, fmt.Sprintf("adaptive job %s: runs %d outside 1..%d or not its simulated points", v.ID, v.Runs, fixed))
			}
		case v.Runs != fixed:
			bad = append(bad, fmt.Sprintf("job %s (%s): runs %d, want %d", v.ID, b.path, v.Runs, fixed))
		}
	}
	return bad
}

// checkServed: every hot predict body, asked again now the run is over,
// returns exactly SavedSurfaces.PredictBatch on the registered model.
func checkServed(s *stack, hot []*request) []string {
	var bad []string
	for _, q := range hot {
		if q.kind != kindPredict {
			continue
		}
		var req serve.PredictRequest
		if err := json.Unmarshal(q.body, &req); err != nil {
			return append(bad, err.Error())
		}
		status, _, body, err := call(s.client, http.MethodPost, s.url+q.path, "", q.body)
		if err != nil || status != http.StatusOK {
			bad = append(bad, fmt.Sprintf("predict check: status %d, %v", status, err))
			continue
		}
		var got serve.PredictResponse
		if err := json.Unmarshal(body, &got); err != nil {
			bad = append(bad, fmt.Sprintf("predict check: %v", err))
			continue
		}
		ss, ok := s.srv.Registry().Get(req.Model)
		if !ok || len(got.Results) != len(req.Points) {
			bad = append(bad, fmt.Sprintf("predict check: model %q missing or %d results for %d points", req.Model, len(got.Results), len(req.Points)))
			continue
		}
		coded := make([][]float64, len(req.Points))
		for i, pt := range req.Points {
			if coded[i], err = ss.EncodePoint(pt); err != nil {
				return append(bad, err.Error())
			}
		}
		for _, id := range ss.Responses() {
			want, err := ss.PredictBatch(id, coded)
			if err != nil {
				return append(bad, err.Error())
			}
			for i, w := range want {
				if g, ok := got.Results[i].Values[string(id)]; !ok || g != w {
					bad = append(bad, fmt.Sprintf("predict check: %s %s point %d: served %v, PredictBatch %v", req.Model, id, i, g, w))
				}
			}
		}
	}
	return bad
}

// checkIdentity: one fresh excitation built on the batch, cluster and
// fixed-fast paths answers the same predict body byte for byte. The batch
// build runs first, so its lanes are simulated; the cluster build
// simulates again on the fleet with the fast engine; the fast build then
// reads the server cache the batch lanes filled.
func checkIdentity(s *stack, cfg passConfig, probe *request) []string {
	var req serve.PredictRequest
	if err := json.Unmarshal(probe.body, &req); err != nil {
		return []string{err.Error()}
	}
	const model = "bench-identity"
	req.Model = model
	body := mustJSON(req)
	e := excite(stream(cfg.seed, streamCheck), cfg.set)
	var first []byte
	for _, bp := range []buildPath{buildPaths[1], buildPaths[3], buildPaths[0]} { // batch, cluster, fixed
		name := bp.name
		if _, err := s.build(bp.req(model, e, cfg.set.HorizonS), "", cfg.set.jobPoll()); err != nil {
			return []string{fmt.Sprintf("identity check: %s build: %v", name, err)}
		}
		status, _, got, err := call(s.client, http.MethodPost, s.url+"/v1/predict", "", body)
		if err != nil || status != http.StatusOK {
			return []string{fmt.Sprintf("identity check: %s predict: status %d, %v", name, status, err)}
		}
		if first == nil {
			first = got
		} else if !bytes.Equal(first, got) {
			return []string{fmt.Sprintf("identity check: %s predict body differs from batch:\n%s\n%s", name, got, first)}
		}
	}
	return nil
}

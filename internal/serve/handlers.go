package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

func (s *Server) handleModelsList(w http.ResponseWriter, r *http.Request) {
	out := ModelsResponse{Models: []ModelSummary{}}
	for _, name := range s.registry.Names() {
		if ss, ok := s.registry.Get(name); ok {
			out.Models = append(out.Models, summarize(name, ss))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleModelGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ss, ok := s.model(w, name)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, detail(name, ss))
}

// handleModelPut uploads a saved-surfaces document and atomically swaps it
// into the registry — hot-reload of a model without restarting the daemon.
func (s *Server) handleModelPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, "missing model name")
		return
	}
	body, err := readAll(w, r, s.maxBody)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, "reading body: %v", err)
		return
	}
	ss, err := core.DecodeSurfaces(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, "%v", err)
		return
	}
	_, existed := s.registry.Get(name)
	s.registry.Set(name, ss)
	status := http.StatusCreated
	if existed {
		status = http.StatusOK
	}
	writeJSON(w, status, detail(name, ss))
}

func (s *Server) handleModelDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.registry.Delete(name) {
		writeError(w, http.StatusNotFound, codeNotFound, "unknown model %q", name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handlePredict is the serving hot path: batch evaluation of any subset of
// responses at any number of points, natural or coded units. One basis
// construction and one scratch row per response cover the whole batch
// (core.SavedSurfaces.PredictBatch).
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req PredictRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	ss, ok := s.model(w, req.Model)
	if !ok {
		return
	}
	points := req.Points
	if req.Point != nil {
		points = append([][]float64{req.Point}, points...)
	}
	if len(points) == 0 {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, "need a point or points")
		return
	}
	units, natural, ok := parseUnits(w, req.Units)
	if !ok {
		return
	}
	coded := points
	if natural {
		coded = make([][]float64, len(points))
		for i, p := range points {
			c, err := ss.EncodePoint(p)
			if err != nil {
				writeError(w, http.StatusBadRequest, codeInvalidRequest, "point %d: %v", i, err)
				return
			}
			coded[i] = c
		}
	} else {
		k := len(ss.Factors)
		for i, p := range coded {
			if len(p) != k {
				writeError(w, http.StatusBadRequest, codeInvalidRequest, "point %d has %d coordinates, model wants %d", i, len(p), k)
				return
			}
		}
	}
	ids, ok := resolveResponses(w, ss, req.Responses)
	if !ok {
		return
	}
	resp := PredictResponse{Model: req.Model, Units: units, Results: make([]PointPrediction, len(points))}
	for i := range resp.Results {
		resp.Results[i] = PointPrediction{Point: points[i], Values: make(map[string]float64, len(ids))}
	}
	for _, id := range ids {
		vals, err := ss.PredictBatch(id, coded)
		if err != nil {
			writeError(w, http.StatusInternalServerError, codeInternal, "%v", err)
			return
		}
		for i, v := range vals {
			resp.Results[i].Values[string(id)] = v
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSweep samples one response curve over one factor's full range
// (core.SavedSurfaces.Sweep).
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	ss, ok := s.model(w, req.Model)
	if !ok {
		return
	}
	id := core.ResponseID(req.Response)
	if _, ok := ss.Coef[id]; !ok {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, "model has no response %q", req.Response)
		return
	}
	fi := ss.FactorIndex(req.Factor)
	if fi < 0 {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, "unknown factor %q", req.Factor)
		return
	}
	n := req.Points
	if n == 0 {
		n = 21
	}
	if n < 2 || n > 100_000 {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, "points %d outside 2..100000", n)
		return
	}
	base, err := basePoint(ss, req.At)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, "%v", err)
		return
	}
	xs, ys, err := ss.Sweep(id, fi, base, n)
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, "%v", err)
		return
	}
	f := ss.Factors[fi]
	writeJSON(w, http.StatusOK, SweepResponse{
		Model: req.Model, Response: req.Response, Factor: f.Name, Unit: f.Unit, X: xs, Y: ys,
	})
}

// handleOptimize finds the surface optimum of one response
// (core.SavedSurfaces.Optimize) — the paper's "practically instant"
// optimization, exposed as an RPC.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req OptimizeRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	ss, ok := s.model(w, req.Model)
	if !ok {
		return
	}
	id := core.ResponseID(req.Response)
	if _, ok := ss.Coef[id]; !ok {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, "model has no response %q", req.Response)
		return
	}
	starts := req.Starts
	if starts <= 0 {
		starts = 6
	}
	if starts > 1000 {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, "starts %d outside 1..1000", req.Starts)
		return
	}
	best, err := ss.Optimize(id, !req.Minimize, starts, req.Seed)
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, OptimizeResponse{
		Model: req.Model, Response: req.Response, Minimize: req.Minimize,
		Natural: best.Natural, Coded: best.Coded, Predicted: best.Predicted, Evals: best.Evals,
	})
}

// handleValidate runs confirming simulations — the flow's "one check run"
// step, batched (core.SavedSurfaces.Validate). It is the only synchronous
// endpoint that touches the simulator, so n is kept small and the client's
// disconnect aborts it.
func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	var req ValidateRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	ss, ok := s.model(w, req.Model)
	if !ok {
		return
	}
	n := req.N
	if n == 0 {
		n = 10
	}
	if n < 1 || n > 1000 {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, "n %d outside 1..1000", req.N)
		return
	}
	// Explicit problem spec (excite/horizon_s); omitted fields keep the
	// defaults: excitation 0.6 and the model's own horizon.
	if req.Excite < 0 || req.Horizon < 0 {
		writeError(w, http.StatusBadRequest, codeInvalidRequest,
			"excite %g and horizon_s %g must be non-negative", req.Excite, req.Horizon)
		return
	}
	excite := req.Excite
	if excite == 0 {
		excite = 0.6
	}
	horizon := req.Horizon
	if horizon == 0 {
		horizon = ss.Horizon
	}
	engine, err := normalizeEngine(req.Engine)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadField, "%v", err)
		return
	}
	p := s.problem(excite, horizon)
	if engine == EngineReference {
		p.Engine = sim.RunReference
		p.EngineName = core.EngineReference
	}
	rep, err := ss.Validate(r.Context(), p, n, req.Seed)
	if err != nil {
		var nerr *core.NumericError
		switch {
		case errors.Is(err, core.ErrModelMismatch):
			writeError(w, http.StatusConflict, codeConflict, "%v", err)
		case errors.Is(err, core.ErrValidationAborted):
			writeError(w, statusClientClosedRequest, codeClientClosed, "%v", err)
		case errors.As(err, &nerr):
			writeError(w, http.StatusInternalServerError, codeNumericInvalid, "%v", err)
		default:
			writeError(w, http.StatusInternalServerError, codeInternal, "%v", err)
		}
		return
	}
	resp := ValidateResponse{Model: req.Model, N: n, Engine: engine, SimMillis: float64(rep.SimTime.Microseconds()) / 1e3}
	for _, row := range rep.Rows {
		resp.Rows = append(resp.Rows, ValidateRow{
			Response:   string(row.Response),
			MeanAbsErr: row.MeanAbsErr,
			MaxAbsErr:  row.MaxAbsErr,
			PRESS:      ss.PRESS[row.Response],
			R2Pred:     ss.R2Pred[row.Response],
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// statusClientClosedRequest is nginx's 499: the client went away mid-work.
const statusClientClosedRequest = 499

func (s *Server) handleBuild(w http.ResponseWriter, r *http.Request) {
	var req BuildRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	job, err := s.jobs.Submit(r.Context(), req)
	if err != nil {
		switch {
		case errors.Is(err, errBadEngine), errors.Is(err, errBadStrategy):
			writeError(w, http.StatusBadRequest, codeBadField, "%v", err)
		case errors.Is(err, ErrQueueFull):
			// A full queue is back-pressure, not a permanent failure: tell
			// the client when to come back, same contract as a 429 shed.
			w.Header().Set("Retry-After", retryAfterSeconds(s.loadCfg.RetryAfter))
			writeError(w, http.StatusServiceUnavailable, codeQueueFull, "%v", err)
		case errors.Is(err, ErrShuttingDown):
			writeError(w, http.StatusServiceUnavailable, codeShuttingDown, "%v", err)
		case errors.Is(err, cluster.ErrNoWorkers):
			// The fleet exists but nobody has joined it; retrying after
			// workers register will succeed, so this is state, not shape.
			writeError(w, http.StatusConflict, codeConflict, "%v", err)
		default:
			writeError(w, http.StatusBadRequest, codeInvalidRequest, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, BuildAccepted{Job: job})
}

// handleJobsList pages through job history: ?state= filters by lifecycle
// state, ?after=<id> resumes past a cursor, ?limit= bounds the page.
func (s *Server) handleJobsList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	state := JobState(q.Get("state"))
	switch state {
	case "", JobQueued, JobRunning, JobDone, JobFailed, JobCanceled:
	default:
		writeError(w, http.StatusBadRequest, codeInvalidRequest,
			"unknown state %q (want queued|running|done|failed|canceled)", string(state))
		return
	}
	limit := 0
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, codeInvalidRequest, "limit %q must be a positive integer", raw)
			return
		}
		limit = n
	}
	after := q.Get("after")
	if after != "" {
		if _, ok := s.jobs.Get(after); !ok {
			writeError(w, http.StatusBadRequest, codeInvalidRequest, "unknown after cursor %q", after)
			return
		}
	}
	jobs, more := s.jobs.ListPage(state, after, limit)
	resp := JobsResponse{Jobs: jobs}
	if more && len(jobs) > 0 {
		resp.NextAfter = jobs[len(jobs)-1].ID
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.jobs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// parseUnits maps the request's units field to (canonical name, natural?).
func parseUnits(w http.ResponseWriter, units string) (string, bool, bool) {
	switch units {
	case "", "natural":
		return "natural", true, true
	case "coded":
		return "coded", false, true
	}
	writeError(w, http.StatusBadRequest, codeInvalidRequest, "units %q must be \"natural\" or \"coded\"", units)
	return "", false, false
}

// resolveResponses validates the requested response names (empty = all).
func resolveResponses(w http.ResponseWriter, ss *core.SavedSurfaces, names []string) ([]core.ResponseID, bool) {
	if len(names) == 0 {
		return ss.Responses(), true
	}
	ids := make([]core.ResponseID, len(names))
	for i, name := range names {
		id := core.ResponseID(name)
		if _, ok := ss.Coef[id]; !ok {
			writeError(w, http.StatusBadRequest, codeInvalidRequest, "model has no response %q", name)
			return nil, false
		}
		ids[i] = id
	}
	return ids, true
}

// basePoint builds a natural-units point from the "at" map, defaulting
// every unset factor to its range midpoint.
func basePoint(ss *core.SavedSurfaces, at map[string]float64) ([]float64, error) {
	nat := make([]float64, len(ss.Factors))
	for i, f := range ss.Factors {
		nat[i] = (f.Min + f.Max) / 2
	}
	for name, v := range at {
		i := ss.FactorIndex(name)
		if i < 0 {
			return nil, fmt.Errorf("unknown factor %q", name)
		}
		nat[i] = v
	}
	return nat, nil
}

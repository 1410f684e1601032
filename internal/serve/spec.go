package serve

import (
	"net/http"
	"reflect"
	"strings"

	"repro/internal/cluster"
)

// endpointSpec is one row of the v1 API surface. The same table drives the
// mux registration (routes) and the machine-readable GET /v1/spec answer,
// so the published contract cannot drift from what is actually served:
// request/response schemas are reflected from the typed structs the
// handlers decode into and encode from.
type endpointSpec struct {
	Method   string
	Path     string
	Label    string
	Summary  string
	Request  any // zero value of the request struct; nil = no JSON body
	Response any // zero value of the response struct; nil = non-JSON or empty

	handler http.HandlerFunc
}

func (s *Server) endpoints() []endpointSpec {
	// The work-protocol rows route to the coordinator's own mux, so the
	// fleet gets one implementation of the protocol; instrument still wraps
	// each row, giving fleet traffic trace IDs, metrics and access logs.
	work := s.work.ServeHTTP
	return []endpointSpec{
		{"GET", "/healthz", "healthz", "Liveness and drain state.",
			nil, HealthResponse{}, s.handleHealthz},
		{"GET", "/metrics", "metrics", "Prometheus text exposition of all server metrics.",
			nil, nil, s.handleMetrics},
		{"GET", "/v1/spec", "spec", "This machine-readable API specification.",
			nil, SpecResponse{}, s.handleSpec},
		{"GET", "/v1/models", "models_list", "List registered surrogate models.",
			nil, ModelsResponse{}, s.handleModelsList},
		{"GET", "/v1/models/{name}", "model_get", "Fetch one model with factors and fit diagnostics.",
			nil, ModelDetail{}, s.handleModelGet},
		{"PUT", "/v1/models/{name}", "model_put", "Upload a saved-surfaces document (hot-swap; POST accepted as alias).",
			nil, ModelDetail{}, s.handleModelPut},
		{"DELETE", "/v1/models/{name}", "model_delete", "Remove a model from the registry.",
			nil, nil, s.handleModelDelete},
		{"POST", "/v1/predict", "predict", "Evaluate responses at one point or a batch of points.",
			PredictRequest{}, PredictResponse{}, s.handlePredict},
		{"POST", "/v1/sweep", "sweep", "Sample one response over one factor's full range.",
			SweepRequest{}, SweepResponse{}, s.handleSweep},
		{"POST", "/v1/optimize", "optimize", "Find the surface optimum of one response.",
			OptimizeRequest{}, OptimizeResponse{}, s.handleOptimize},
		{"POST", "/v1/validate", "validate", "Run confirming simulations against the surface predictions.",
			ValidateRequest{}, ValidateResponse{}, s.handleValidate},
		{"POST", "/v1/build", "build", "Enqueue an asynchronous DoE build.",
			BuildRequest{}, BuildAccepted{}, s.handleBuild},
		{"GET", "/v1/jobs", "jobs_list", "Page through build jobs (?state=, ?after=, ?limit=).",
			nil, JobsResponse{}, s.handleJobsList},
		{"GET", "/v1/jobs/{id}", "job_get", "Fetch one build job.",
			nil, JobView{}, s.handleJobGet},
		{"POST", cluster.PathRegister, "cluster_register", "Worker fleet: register (or re-register) a worker; issues its epoch.",
			cluster.RegisterRequest{}, cluster.RegisterResponse{}, work},
		{"POST", cluster.PathHeartbeat, "cluster_heartbeat", "Worker fleet: refresh a worker's liveness.",
			cluster.HeartbeatRequest{}, cluster.HeartbeatResponse{}, work},
		{"POST", cluster.PathLease, "cluster_lease", "Worker fleet: pull the next batch of design points.",
			cluster.LeaseRequest{}, cluster.LeaseResponse{}, work},
		{"POST", cluster.PathResults, "cluster_results", "Worker fleet: report a finished lease's results.",
			cluster.ResultsRequest{}, cluster.ResultsResponse{}, work},
		{"POST", cluster.PathDeregister, "cluster_deregister", "Worker fleet: deregister cleanly.",
			cluster.DeregisterRequest{}, cluster.DeregisterResponse{}, work},
		{"GET", cluster.PathWorkers, "cluster_workers", "Worker fleet health: per-worker state, leases and counters.",
			nil, cluster.WorkersResponse{}, work},
		{"GET", cluster.PathCache, "cluster_cache", "Sharded cache tier: shard map, per-worker and fleet cache counters.",
			nil, cluster.CacheStateResponse{}, work},
	}
}

// FieldSpec describes one JSON field of a request or response schema.
// The spec is generated from the structs' json tags, never hand-maintained.
type FieldSpec struct {
	Name     string      `json:"name"`
	Type     string      `json:"type"`
	Optional bool        `json:"optional,omitempty"`
	Fields   []FieldSpec `json:"fields,omitempty"` // populated when Type is object
}

// SchemaView is the JSON schema of one message body.
type SchemaView struct {
	Type   string      `json:"type"`
	Fields []FieldSpec `json:"fields,omitempty"`
}

// EndpointView is one endpoint in the published specification.
type EndpointView struct {
	Method   string      `json:"method"`
	Path     string      `json:"path"`
	Summary  string      `json:"summary"`
	Request  *SchemaView `json:"request,omitempty"`
	Response *SchemaView `json:"response,omitempty"`
}

// ErrorCodeView documents one machine-readable error code.
type ErrorCodeView struct {
	Code        string `json:"code"`
	Description string `json:"description"`
}

// SpecResponse is the GET /v1/spec body: every endpoint with its schemas,
// plus the error envelope and its code vocabulary.
type SpecResponse struct {
	Version       string          `json:"version"`
	Endpoints     []EndpointView  `json:"endpoints"`
	ErrorEnvelope *SchemaView     `json:"error_envelope"`
	ErrorCodes    []ErrorCodeView `json:"error_codes"`
}

var errorCodeDocs = []ErrorCodeView{
	{codeInvalidRequest, "malformed body or invalid field values"},
	{codeBadField, "request body carries a field the endpoint does not define"},
	{codeProtoMismatch, "cluster protocol request speaks a different proto_version than this server"},
	{codeNotFound, "unknown model or job"},
	{codeConflict, "request is inconsistent with server state"},
	{codeQueueFull, "build queue at capacity; retry after the Retry-After header"},
	{codeOverloaded, "admission control shed the request; retry after the Retry-After header"},
	{codeShuttingDown, "server is draining; no new work accepted"},
	{codeClientClosed, "client disconnected mid-work"},
	{codeNumericInvalid, "simulation produced NaN/Inf responses"},
	{codeInternal, "unexpected server-side failure"},
}

func (s *Server) handleSpec(w http.ResponseWriter, r *http.Request) {
	resp := SpecResponse{
		Version:       "v1",
		ErrorEnvelope: schemaOf(reflect.TypeOf(errorBody{})),
		ErrorCodes:    errorCodeDocs,
	}
	for _, ep := range s.endpoints() {
		view := EndpointView{Method: ep.Method, Path: ep.Path, Summary: ep.Summary}
		if ep.Request != nil {
			view.Request = schemaOf(reflect.TypeOf(ep.Request))
		}
		if ep.Response != nil {
			view.Response = schemaOf(reflect.TypeOf(ep.Response))
		}
		resp.Endpoints = append(resp.Endpoints, view)
	}
	writeJSON(w, http.StatusOK, resp)
}

// schemaOf reflects a Go type into its JSON wire schema.
func schemaOf(t reflect.Type) *SchemaView {
	name, fields := typeSpec(t, 0)
	return &SchemaView{Type: name, Fields: fields}
}

// typeSpec maps a Go type to a JSON type name, recursing into structs
// (depth-limited: the v1 shapes are shallow, the limit only guards against
// a future accidental cycle).
func typeSpec(t reflect.Type, depth int) (string, []FieldSpec) {
	if depth > 6 {
		return "object", nil
	}
	switch t.Kind() {
	case reflect.Pointer:
		return typeSpec(t.Elem(), depth)
	case reflect.Bool:
		return "boolean", nil
	case reflect.String:
		return "string", nil
	case reflect.Float32, reflect.Float64:
		return "number", nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return "integer", nil
	case reflect.Slice, reflect.Array:
		elem, _ := typeSpec(t.Elem(), depth+1)
		return "array<" + elem + ">", nil
	case reflect.Map:
		key, _ := typeSpec(t.Key(), depth+1)
		val, _ := typeSpec(t.Elem(), depth+1)
		return "map<" + key + "," + val + ">", nil
	case reflect.Struct:
		return "object", structFields(t, depth)
	default:
		return "object", nil
	}
}

// structFields walks the exported fields in declaration order, honouring
// json tags (name, "-" skips, inlined embeds).
func structFields(t reflect.Type, depth int) []FieldSpec {
	var out []FieldSpec
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		tag := f.Tag.Get("json")
		name, opts, _ := strings.Cut(tag, ",")
		if name == "-" {
			continue
		}
		if f.Anonymous && name == "" {
			// Embedded struct: fields are inlined on the wire.
			_, inner := typeSpec(f.Type, depth)
			out = append(out, inner...)
			continue
		}
		if name == "" {
			name = f.Name
		}
		typ, fields := typeSpec(f.Type, depth+1)
		out = append(out, FieldSpec{
			Name:     name,
			Type:     typ,
			Optional: strings.Contains(","+opts+",", ",omitempty,"),
			Fields:   fields,
		})
	}
	return out
}

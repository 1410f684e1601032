package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestSpecCoversEveryEndpoint: GET /v1/spec is generated from the same
// table that registers the routes, so every served endpoint must appear,
// with schemas reflected from the typed structs.
func TestSpecCoversEveryEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	resp, body := get(t, ts.URL+"/v1/spec")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spec status %d: %s", resp.StatusCode, body)
	}
	var spec SpecResponse
	if err := json.Unmarshal(body, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.Version != "v1" {
		t.Fatalf("spec version %q", spec.Version)
	}
	listed := map[string]EndpointView{}
	for _, ep := range spec.Endpoints {
		listed[ep.Method+" "+ep.Path] = ep
	}
	for _, ep := range srv.endpoints() {
		if _, ok := listed[ep.Method+" "+ep.Path]; !ok {
			t.Errorf("spec missing endpoint %s %s", ep.Method, ep.Path)
		}
	}

	// The build request schema is reflected, not hand-written: excite is an
	// optional number, and the retired amp alias is gone.
	build, ok := listed["POST /v1/build"]
	if !ok || build.Request == nil {
		t.Fatal("spec has no POST /v1/build request schema")
	}
	fields := map[string]FieldSpec{}
	for _, f := range build.Request.Fields {
		fields[f.Name] = f
	}
	if f := fields["excite"]; f.Type != "number" || !f.Optional {
		t.Fatalf("excite field spec wrong: %+v", f)
	}
	if f, ok := fields["amp"]; ok {
		t.Fatalf("retired amp field still in the spec: %+v", f)
	}

	// The error vocabulary includes the unknown-field code, and the
	// envelope schema names both wire fields.
	codes := map[string]bool{}
	for _, c := range spec.ErrorCodes {
		codes[c.Code] = true
	}
	for _, want := range []string{"invalid_request", "bad_field", "not_found", "queue_full", "shutting_down", "internal"} {
		if !codes[want] {
			t.Errorf("spec missing error code %q", want)
		}
	}
	if spec.ErrorEnvelope == nil || len(spec.ErrorEnvelope.Fields) != 2 {
		t.Fatalf("error envelope schema wrong: %+v", spec.ErrorEnvelope)
	}
}

// TestUnknownFieldRejected: typed decoding refuses fields outside the
// contract with the dedicated bad_field code — a typo like "exite" fails
// loudly instead of silently defaulting.
func TestUnknownFieldRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/build", map[string]any{
		"model": "m", "exite": 0.7,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field status %d: %s", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Code != codeBadField {
		t.Fatalf("unknown field code %q, want %q (%s)", eb.Code, codeBadField, eb.Error)
	}
}

// TestAmpFieldRejected: the retired "amp" alias is an unknown field like
// any other, so build and validate answer 400 bad_field naming it.
func TestAmpFieldRejected(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	srv.Registry().Set("m", fixture(t))
	for _, path := range []string{"/v1/build", "/v1/validate"} {
		resp, body := postJSON(t, ts.URL+path, map[string]any{"model": "m", "amp": 0.5})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s with amp: status %d: %s, want 400", path, resp.StatusCode, body)
		}
		var e errorBody
		unmarshal(t, body, &e)
		if e.Code != codeBadField || !strings.Contains(e.Error, "amp") {
			t.Fatalf("%s with amp: error %+v, want code %q naming the field", path, e, codeBadField)
		}
	}
}

package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// TestWorkProtocolDecodeRuleSharedByBothMounts sends the same bad bodies
// to the work protocol under serve and under Coordinator.Handler(): both
// mounts decode through one rule, so each body gets the same status and
// the same envelope code from either.
func TestWorkProtocolDecodeRuleSharedByBothMounts(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	plain := httptest.NewServer(srv.Coordinator().Handler())
	defer plain.Close()

	post := func(base, path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env struct{ Error, Code string }
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("%s %s: no error envelope: %v", base, path, err)
		}
		return resp.StatusCode, env.Code
	}
	bodies := []struct {
		name, body, code string
	}{
		{"unknown field", `{"proto_version":2,"worker":"w","sharld_count":64}`, codeBadField},
		{"trailing data", `{"proto_version":2,"worker":"w"} {}`, codeInvalidRequest},
		{"trailing garbage", `{"proto_version":2,"worker":"w"}x`, codeInvalidRequest},
		{"malformed", `{"proto_version":2,`, codeInvalidRequest},
		{"wrong type", `{"proto_version":"two"}`, codeInvalidRequest},
		{"empty", ``, codeInvalidRequest},
		{"stale proto", `{"proto_version":1,"worker":"w"}`, codeProtoMismatch},
	}
	paths := []string{cluster.PathRegister, cluster.PathHeartbeat, cluster.PathLease,
		cluster.PathResults, cluster.PathDeregister}
	for _, b := range bodies {
		for _, path := range paths {
			s1, c1 := post(ts.URL, path, b.body)
			s2, c2 := post(plain.URL, path, b.body)
			if s1 != http.StatusBadRequest || s2 != http.StatusBadRequest || c1 != b.code || c2 != b.code {
				t.Errorf("%s on %s: serve %d %q, coordinator %d %q, want 400 %q on both",
					b.name, path, s1, c1, s2, c2, b.code)
			}
		}
	}
	if n := len(srv.Coordinator().Workers()); n != 0 {
		t.Fatalf("rejected bodies registered %d workers", n)
	}
}

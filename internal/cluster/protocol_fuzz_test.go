package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// protocolPaths are the work-protocol POST routes of Coordinator.Handler.
var protocolPaths = []string{PathRegister, PathHeartbeat, PathLease, PathResults, PathDeregister}

// FuzzCoordinatorProtocol posts arbitrary bodies to every work-protocol
// route of a coordinator with one registered worker ("w-1", epoch
// "ep-000001") holding one lease ("lease-000001", points 0–3 of a running
// CCF build). No body may panic the coordinator, and every answer must be
// a 200 or a 4xx error envelope. The seed corpus, with at least one body per route, is
// in testdata/fuzz/FuzzCoordinatorProtocol.
func FuzzCoordinatorProtocol(f *testing.F) {
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		cfg := fastConfig()
		cfg.PollInterval = time.Millisecond
		c := NewCoordinator(cfg)
		reg, err := c.Register(RegisterRequest{Worker: "w-1", Capacity: 1})
		if err != nil {
			c.Shutdown()
			t.Fatal(err)
		}
		done := startBuild(c, testDesign(t))
		defer func() { c.Shutdown(); <-done }()
		if lr := leaseOrPoll(t, c, "w-1", reg.Epoch); lr.Lease == nil {
			t.Fatalf("no lease to fuzz against: %+v", lr)
		}

		path := protocolPaths[int(route)%len(protocolPaths)]
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, req)

		switch {
		case rec.Code == http.StatusOK:
		case rec.Code >= 400 && rec.Code < 500:
			var env struct{ Error, Code string }
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == "" || env.Code == "" {
				t.Fatalf("%s answered %d without an error envelope: %q", path, rec.Code, rec.Body.String())
			}
		default:
			t.Fatalf("%s answered %d: %q", path, rec.Code, rec.Body.String())
		}
	})
}

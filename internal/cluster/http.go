package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"

	"repro/internal/apiclient"
)

// CodeProtoMismatch is the envelope code of a request carrying another
// protocol version than ProtoVersion, answered with HTTP 400.
const CodeProtoMismatch = "proto_mismatch"

// Handler is the one HTTP implementation of the work protocol: the routes
// under /v1/cluster/. internal/serve routes each of them here through its
// instrumented endpoint table, which adds trace IDs, metrics and access
// logs; tests, cmd/bench and cmd/simnode's tests serve it bare. Rejected
// requests get the v1 error envelope, {"error": …, "code": …}, under 400.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathRegister, func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if !decodeBody(w, r, &req) || !checkProto(w, req) {
			return
		}
		resp, err := c.Register(req)
		if err != nil {
			httpError(w, http.StatusBadRequest, "invalid_request", err)
			return
		}
		encodeBody(w, resp)
	})
	mux.HandleFunc("POST "+PathHeartbeat, func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decodeBody(w, r, &req) || !checkProto(w, req) {
			return
		}
		encodeBody(w, c.Heartbeat(req))
	})
	mux.HandleFunc("POST "+PathLease, func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decodeBody(w, r, &req) || !checkProto(w, req) {
			return
		}
		encodeBody(w, c.Lease(r.Context(), req))
	})
	mux.HandleFunc("POST "+PathResults, func(w http.ResponseWriter, r *http.Request) {
		var req ResultsRequest
		if !decodeBody(w, r, &req) || !checkProto(w, req) {
			return
		}
		encodeBody(w, c.Results(req))
	})
	mux.HandleFunc("POST "+PathDeregister, func(w http.ResponseWriter, r *http.Request) {
		var req DeregisterRequest
		if !decodeBody(w, r, &req) || !checkProto(w, req) {
			return
		}
		encodeBody(w, c.Deregister(req))
	})
	mux.HandleFunc("GET "+PathWorkers, func(w http.ResponseWriter, r *http.Request) {
		encodeBody(w, WorkersResponse{Workers: c.Workers()})
	})
	mux.HandleFunc("GET "+PathCache, func(w http.ResponseWriter, r *http.Request) {
		encodeBody(w, c.CacheState())
	})
	return mux
}

// decodeBody decodes a protocol request under apiclient.DecodeRequest, the
// decode rule of every v1 request body, and answers a rejected body with
// 400 and the rule's code.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := apiclient.DecodeRequest(http.MaxBytesReader(w, r.Body, 8<<20), v); err != nil {
		var de *apiclient.DecodeError
		errors.As(err, &de)
		httpError(w, http.StatusBadRequest, de.Code, err)
		return false
	}
	return true
}

// checkProto rejects requests speaking the wrong protocol generation with
// the typed proto_mismatch code.
func checkProto(w http.ResponseWriter, v Versioned) bool {
	if err := CheckProto(v); err != nil {
		httpError(w, http.StatusBadRequest, CodeProtoMismatch, err)
		return false
	}
	return true
}

func encodeBody(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, code string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}{err.Error(), code})
}

// Client dials a coordinator's work protocol — the worker side of the
// wire, built on the shared apiclient (typed envelopes, transport retry,
// X-Request-ID propagation). Zero value is unusable; set Base (and
// optionally HTTP). Every request is stamped with this build's
// ProtoVersion.
type Client struct {
	// Base is the coordinator's base URL (e.g. "http://host:8080").
	Base string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client

	once sync.Once
	api  *apiclient.Client
}

func (cl *Client) client() *apiclient.Client {
	cl.once.Do(func() {
		cl.api = apiclient.New(cl.Base, apiclient.Options{HTTP: cl.HTTP})
	})
	return cl.api
}

// Register announces the worker.
func (cl *Client) Register(ctx context.Context, req RegisterRequest) (RegisterResponse, error) {
	req.ProtoVersion = ProtoVersion
	var out RegisterResponse
	err := cl.client().Post(ctx, PathRegister, req, &out)
	return out, err
}

// Heartbeat refreshes the worker's liveness.
func (cl *Client) Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	req.ProtoVersion = ProtoVersion
	var out HeartbeatResponse
	err := cl.client().Post(ctx, PathHeartbeat, req, &out)
	return out, err
}

// Lease pulls the next batch of work.
func (cl *Client) Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	req.ProtoVersion = ProtoVersion
	var out LeaseResponse
	err := cl.client().Post(ctx, PathLease, req, &out)
	return out, err
}

// Results streams a finished lease back.
func (cl *Client) Results(ctx context.Context, req ResultsRequest) (ResultsResponse, error) {
	req.ProtoVersion = ProtoVersion
	var out ResultsResponse
	err := cl.client().Post(ctx, PathResults, req, &out)
	return out, err
}

// Deregister removes the worker cleanly.
func (cl *Client) Deregister(ctx context.Context, req DeregisterRequest) (DeregisterResponse, error) {
	req.ProtoVersion = ProtoVersion
	var out DeregisterResponse
	err := cl.client().Post(ctx, PathDeregister, req, &out)
	return out, err
}

// CacheState reads the fleet cache-tier snapshot.
func (cl *Client) CacheState(ctx context.Context) (CacheStateResponse, error) {
	var out CacheStateResponse
	err := cl.client().Get(ctx, PathCache, &out)
	return out, err
}

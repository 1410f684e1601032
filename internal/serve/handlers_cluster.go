package serve

import (
	"net/http"

	"repro/internal/cluster"
)

// The cluster endpoints are thin wrappers over the coordinator's typed
// work protocol, mounted through the same instrumented endpoint table as
// the rest of v1, so fleet traffic carries trace IDs and shows up in
// /metrics and the access log like every other request. Every protocol
// request carries a proto_version (see cluster.ProtoVersion); a mismatch
// is rejected with the typed proto_mismatch code before any state changes.

// checkClusterProto gates a protocol request on its carried version.
func checkClusterProto(w http.ResponseWriter, v cluster.Versioned) bool {
	if err := cluster.CheckProto(v); err != nil {
		writeError(w, http.StatusBadRequest, codeProtoMismatch, "%v", err)
		return false
	}
	return true
}

func (s *Server) handleClusterRegister(w http.ResponseWriter, r *http.Request) {
	var req cluster.RegisterRequest
	if !s.decodeJSON(w, r, &req) || !checkClusterProto(w, req) {
		return
	}
	resp, err := s.coord.Register(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleClusterHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req cluster.HeartbeatRequest
	if !s.decodeJSON(w, r, &req) || !checkClusterProto(w, req) {
		return
	}
	writeJSON(w, http.StatusOK, s.coord.Heartbeat(req))
}

func (s *Server) handleClusterLease(w http.ResponseWriter, r *http.Request) {
	var req cluster.LeaseRequest
	if !s.decodeJSON(w, r, &req) || !checkClusterProto(w, req) {
		return
	}
	writeJSON(w, http.StatusOK, s.coord.Lease(r.Context(), req))
}

func (s *Server) handleClusterResults(w http.ResponseWriter, r *http.Request) {
	var req cluster.ResultsRequest
	if !s.decodeJSON(w, r, &req) || !checkClusterProto(w, req) {
		return
	}
	writeJSON(w, http.StatusOK, s.coord.Results(req))
}

func (s *Server) handleClusterDeregister(w http.ResponseWriter, r *http.Request) {
	var req cluster.DeregisterRequest
	if !s.decodeJSON(w, r, &req) || !checkClusterProto(w, req) {
		return
	}
	writeJSON(w, http.StatusOK, s.coord.Deregister(req))
}

func (s *Server) handleClusterWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, cluster.WorkersResponse{Workers: s.coord.Workers()})
}

func (s *Server) handleClusterCache(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.coord.CacheState())
}

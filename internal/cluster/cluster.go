// Package cluster is the distributed build fabric: it shards the design
// points of one DoE build across a fleet of simnode workers over a small
// pull-based HTTP/JSON protocol.
//
// The coordinator (embedded in ehdoed, see internal/serve) owns the only
// authoritative state: which workers exist, which points each outstanding
// lease covers, and which points already produced a row. Workers are
// stateless pullers — they register, heartbeat, lease a batch of coded
// design points, run them through their local simcache.Runner chain, and
// stream the results back. Every fault the fabric adds on top of a local
// run maps onto the repo's existing typed-error semantics:
//
//   - A worker that stops heartbeating is declared lost; its leased points
//     are re-enqueued under a *WorkerLostError (Transient() == true), so
//     whole-worker loss retries exactly like a transient per-run fault.
//   - A lease that outlives the lease timeout is stolen: its unfinished
//     points are re-enqueued for other workers while late results stay
//     acceptable — the first result for a point wins, so stealing can only
//     add capacity, never change values.
//   - A worker whose reported failures hit the consecutive-failure limit
//     is circuit-broken (evicted); it may rejoin by re-registering, which
//     issues a fresh epoch.
//   - Re-registration under the same worker ID (a restarted or partitioned
//     twin — the split-brain case) supersedes the old incarnation: the old
//     epoch's leases are re-enqueued and its requests answer Gone, so at
//     most one incarnation can return results.
//
// Determinism: the simulator is deterministic and design points are
// distributed verbatim (encoding/json round-trips float64 exactly), so a
// fleet build assembles a Dataset bit-identical to a local
// Problem.RunDesign run — regardless of worker count, lease interleaving,
// or mid-build worker loss.
package cluster

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Protocol paths served by Coordinator.Handler and internal/serve, and
// dialed by the apiclient-backed Client. The peer paths are served by each
// worker's peer-cache listener, not the coordinator.
const (
	PathRegister   = "/v1/cluster/register"
	PathHeartbeat  = "/v1/cluster/heartbeat"
	PathLease      = "/v1/cluster/lease"
	PathResults    = "/v1/cluster/results"
	PathDeregister = "/v1/cluster/deregister"
	PathWorkers    = "/v1/cluster/workers"
	PathCache      = "/v1/cluster/cache"
	PathPeerGet    = "/v1/peer/cache/get"
	PathPeerPut    = "/v1/peer/cache/put"
)

// ProtoVersion is the cluster wire-protocol generation. Every request
// carries it (via the embedded ProtoHeader) and both sides reject a
// mismatch with *ProtoMismatchError, so a mixed fleet fails loudly at the
// first call instead of silently misinterpreting fields. Version 2 added
// the sharded cache tier (shard maps, peer fetch, cache stats).
const ProtoVersion = 2

// ProtoHeader is embedded in every protocol request; the client stamps it,
// the server checks it with CheckProto.
type ProtoHeader struct {
	ProtoVersion int `json:"proto_version"`
}

// Proto returns the carried protocol version.
func (h ProtoHeader) Proto() int { return h.ProtoVersion }

// Versioned is any message carrying a protocol version.
type Versioned interface{ Proto() int }

// ProtoMismatchError reports a request speaking the wrong protocol
// generation; the HTTP layer maps it to 400/proto_mismatch.
type ProtoMismatchError struct {
	Got  int
	Want int
}

func (e *ProtoMismatchError) Error() string {
	return fmt.Sprintf("cluster: protocol version %d, this side speaks %d", e.Got, e.Want)
}

// CheckProto validates a message's protocol version against this build's.
func CheckProto(v Versioned) error {
	if got := v.Proto(); got != ProtoVersion {
		return &ProtoMismatchError{Got: got, Want: ProtoVersion}
	}
	return nil
}

// RegisterRequest announces a worker to the coordinator. Re-registering an
// ID that is already known supersedes the previous incarnation (its leases
// are re-enqueued and its epoch invalidated).
type RegisterRequest struct {
	ProtoHeader
	// Worker is the fleet-unique worker ID.
	Worker string `json:"worker"`
	// Capacity is the worker's concurrent point capacity (informational).
	Capacity int `json:"capacity,omitempty"`
	// PeerURL, when set, is the worker's peer-cache base URL; the worker
	// joins the sharded cache tier and owns a slice of the fingerprint key
	// space. Empty means the worker runs cache-less (or local-only) and
	// owns nothing.
	PeerURL string `json:"peer_url,omitempty"`
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	// Epoch identifies this incarnation of the worker; every subsequent
	// request must echo it. A Gone answer means the epoch was superseded
	// or evicted — re-register to obtain a fresh one.
	Epoch string `json:"epoch"`
	// HeartbeatS is the heartbeat interval the coordinator expects (s).
	HeartbeatS float64 `json:"heartbeat_s"`
	// Draining reports that the coordinator is shutting down.
	Draining bool `json:"draining,omitempty"`
	// Map is the current cache shard map (nil until a peer-capable worker
	// has registered).
	Map *ShardMap `json:"map,omitempty"`
}

// HeartbeatRequest keeps a worker's incarnation alive and piggybacks its
// cache-tier state: the shard-map generation it holds (so the coordinator
// can answer with a newer map) and its cumulative cache counters.
type HeartbeatRequest struct {
	ProtoHeader
	Worker string `json:"worker"`
	Epoch  string `json:"epoch"`
	// Generation is the shard-map generation the worker currently holds.
	Generation uint64 `json:"generation,omitempty"`
	// Cache is the worker's cumulative cache-counter snapshot.
	Cache *CacheStats `json:"cache,omitempty"`
}

// HeartbeatResponse answers a heartbeat.
type HeartbeatResponse struct {
	OK bool `json:"ok"`
	// Gone means this (worker, epoch) is no longer valid: superseded by a
	// re-registration, evicted, or expired. The worker must re-register.
	Gone bool `json:"gone,omitempty"`
	// Draining asks the worker to deregister and exit.
	Draining bool `json:"draining,omitempty"`
	// Map carries the current shard map when it is newer than the
	// generation the worker reported; nil means the worker is up to date.
	Map *ShardMap `json:"map,omitempty"`
}

// LeaseRequest asks for a batch of design points to run.
type LeaseRequest struct {
	ProtoHeader
	Worker string `json:"worker"`
	Epoch  string `json:"epoch"`
	// Max caps the number of points in the granted lease; the coordinator
	// clamps it to its own batch limit. <=0 means the coordinator's limit.
	Max int `json:"max,omitempty"`
	// Generation is the shard-map generation the worker currently holds.
	Generation uint64 `json:"generation,omitempty"`
}

// LeaseResponse grants at most one lease; a nil Lease means no work is
// available right now. Map rides along when the worker's reported
// generation is stale, so a worker never executes a lease against an
// older map than the coordinator granted it under.
type LeaseResponse struct {
	Lease    *LeaseView `json:"lease,omitempty"`
	Gone     bool       `json:"gone,omitempty"`
	Draining bool       `json:"draining,omitempty"`
	Map      *ShardMap  `json:"map,omitempty"`
}

// PointAssignment is one design point of a lease, in coded units.
type PointAssignment struct {
	Index int       `json:"index"`
	Coded []float64 `json:"coded"`
}

// LeaseView is the wire form of one work lease: the problem parameters a
// worker needs to instantiate the identical Problem locally, plus the
// assigned points. Trace is the submitting build's trace ID, so obs log
// lines thread coordinator → worker → simulation run.
type LeaseView struct {
	ID        string            `json:"id"`
	Job       string            `json:"job"`
	Trace     string            `json:"trace,omitempty"`
	Excite    float64           `json:"excite"`
	Horizon   float64           `json:"horizon_s"`
	Responses []string          `json:"responses"`
	Points    []PointAssignment `json:"points"`
}

// PointResult is the outcome of one leased point.
type PointResult struct {
	Index int `json:"index"`
	// Values maps response IDs to simulated values; nil when Error is set.
	Values map[string]float64 `json:"values,omitempty"`
	// Error is the worker-side failure, already past the worker's local
	// retry budget. Transient reports whether it was a retryable class
	// (core.IsTransient), which decides whether the coordinator re-enqueues
	// the point.
	Error     string `json:"error,omitempty"`
	Transient bool   `json:"transient,omitempty"`
	// ElapsedNs, Retries and Panics feed the Dataset's SimWork and
	// fault-recovery stats.
	ElapsedNs int64 `json:"elapsed_ns,omitempty"`
	Retries   int   `json:"retries,omitempty"`
	Panics    int   `json:"panics,omitempty"`
}

// ResultsRequest streams a finished lease's results back. Cache piggybacks
// the worker's cumulative cache counters so fleet-wide cache accounting is
// current the moment a build finishes, not one heartbeat later.
type ResultsRequest struct {
	ProtoHeader
	Worker  string        `json:"worker"`
	Epoch   string        `json:"epoch"`
	Lease   string        `json:"lease"`
	Results []PointResult `json:"results"`
	Cache   *CacheStats   `json:"cache,omitempty"`
}

// ResultsResponse acknowledges a results upload.
type ResultsResponse struct {
	OK       bool `json:"ok"`
	Gone     bool `json:"gone,omitempty"`
	Draining bool `json:"draining,omitempty"`
}

// DeregisterRequest removes a worker from the fleet cleanly.
type DeregisterRequest struct {
	ProtoHeader
	Worker string `json:"worker"`
	Epoch  string `json:"epoch"`
}

// DeregisterResponse acknowledges a deregistration.
type DeregisterResponse struct {
	OK bool `json:"ok"`
}

// WorkerView is the health snapshot of one fleet member, served by
// GET /v1/cluster/workers.
type WorkerView struct {
	ID       string `json:"id"`
	State    string `json:"state"` // active | lost | evicted
	Epoch    string `json:"epoch"`
	Capacity int    `json:"capacity,omitempty"`
	// InflightLeases and InflightPoints describe outstanding work.
	InflightLeases int `json:"inflight_leases"`
	InflightPoints int `json:"inflight_points,omitempty"`
	// CompletedPoints, StolenLeases and FailedPoints are lifetime counts
	// for the worker ID (across re-registrations).
	CompletedPoints     int     `json:"completed_points"`
	StolenLeases        int     `json:"stolen_leases,omitempty"`
	FailedPoints        int     `json:"failed_points,omitempty"`
	ConsecutiveFailures int     `json:"consecutive_failures,omitempty"`
	LastHeartbeatAgoS   float64 `json:"last_heartbeat_ago_s"`
}

// WorkersResponse is the GET /v1/cluster/workers body.
type WorkersResponse struct {
	Workers []WorkerView `json:"workers"`
}

// CacheStats is a worker's cumulative cache-counter snapshot, piggybacked
// on heartbeats and results uploads. All counters are monotonic for one
// worker process; the coordinator sums the latest snapshot per live worker
// plus an accumulator of cleanly departed ones.
type CacheStats struct {
	// Hits counts runs answered without executing the engine: memory LRU,
	// single-flight dedup joins, and disk-tier loads.
	Hits uint64 `json:"hits"`
	// Misses counts actual engine executions.
	Misses uint64 `json:"misses"`
	// PeerFetches counts misses answered by the owning peer's cache.
	PeerFetches uint64 `json:"peer_fetches"`
	// PeerTimeouts counts owner fetches that failed or timed out, falling
	// back to local simulation.
	PeerTimeouts uint64 `json:"peer_timeouts"`
	// PeerServed counts peer-protocol lookups this worker answered with a
	// value; PeerStores counts replicated results accepted from peers.
	PeerServed uint64 `json:"peer_served,omitempty"`
	PeerStores uint64 `json:"peer_stores,omitempty"`
	// Entries is the current in-memory entry count (a gauge, not a counter).
	Entries int `json:"entries,omitempty"`
}

// Add accumulates another snapshot into s.
func (s *CacheStats) Add(o CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.PeerFetches += o.PeerFetches
	s.PeerTimeouts += o.PeerTimeouts
	s.PeerServed += o.PeerServed
	s.PeerStores += o.PeerStores
	s.Entries += o.Entries
}

// behind reports whether snapshot s was taken before o by the same
// worker: its counters only grow, so any counter trailing o's marks s as
// older.
func (s *CacheStats) behind(o CacheStats) bool {
	return s.Hits < o.Hits || s.Misses < o.Misses || s.PeerFetches < o.PeerFetches ||
		s.PeerTimeouts < o.PeerTimeouts || s.PeerServed < o.PeerServed || s.PeerStores < o.PeerStores
}

// CacheWorkerView is one worker's slice of the fleet cache state, served
// by GET /v1/cluster/cache.
type CacheWorkerView struct {
	ID      string     `json:"id"`
	State   string     `json:"state"` // active | lost | evicted
	PeerURL string     `json:"peer_url,omitempty"`
	Shards  int        `json:"shards"` // slots owned in the current map
	Suspect bool       `json:"suspect,omitempty"`
	Cache   CacheStats `json:"cache"`
}

// CacheStateResponse is the GET /v1/cluster/cache body: the live shard map
// plus per-worker and fleet-aggregate cache counters. Totals include
// cleanly departed workers, so fleet counters stay monotonic across
// graceful churn (a crash without deregister loses that worker's deltas
// since its last heartbeat).
type CacheStateResponse struct {
	Map     *ShardMap         `json:"map,omitempty"`
	Workers []CacheWorkerView `json:"workers"`
	Totals  CacheStats        `json:"totals"`
}

// PeerGetRequest asks the owning worker for a cached simulation result.
type PeerGetRequest struct {
	ProtoHeader
	// Key is the simcache fingerprint (64 hex chars).
	Key string `json:"key"`
	// Engine guards against serving a result computed by a different
	// engine for the same design (mirrors the disk tier's check).
	Engine string `json:"engine"`
	// Generation is the requester's shard-map generation, echoed so the
	// owner can flag staleness.
	Generation uint64 `json:"generation,omitempty"`
}

// PeerGetResponse answers a peer lookup. Found=false with OK status means
// the owner simply doesn't have the key yet — the requester simulates
// locally and replicates the result back.
type PeerGetResponse struct {
	Found bool `json:"found"`
	// Result is the cached simulation result when Found.
	Result *sim.Result `json:"result,omitempty"`
	// Stale reports that the requester's generation is behind the one this
	// owner holds; purely diagnostic (content-addressing keeps any answer
	// valid).
	Stale bool `json:"stale,omitempty"`
}

// PeerPutRequest replicates a freshly simulated result to the key's owner,
// so the next fleet-wide repeat is a peer hit no matter which worker
// simulated it first.
type PeerPutRequest struct {
	ProtoHeader
	Key    string      `json:"key"`
	Engine string      `json:"engine"`
	Result *sim.Result `json:"result"`
}

// PeerPutResponse acknowledges a replication push.
type PeerPutResponse struct {
	OK bool `json:"ok"`
}

// WorkerLostError reports that a worker holding leased design points
// dropped off the fleet (heartbeat timeout, abrupt connection loss, or a
// superseding re-registration). It is transient: the lost points are
// re-enqueued for the surviving workers, so the build retries exactly like
// it would after a transient per-run fault. It surfaces as a build error
// only when a point's re-enqueue budget is exhausted.
type WorkerLostError struct {
	Worker string
	Reason string
}

func (e *WorkerLostError) Error() string {
	return fmt.Sprintf("cluster: worker %s lost (%s)", e.Worker, e.Reason)
}

// Transient marks worker loss as retryable for core's typed-error
// semantics (core.IsTransient).
func (e *WorkerLostError) Transient() bool { return true }

// ErrDraining fails in-flight fleet builds when the coordinator shuts
// down; internal/serve classifies it as a canceled job.
var ErrDraining = errors.New("cluster: coordinator draining")

// ErrNoWorkers rejects a fleet build when no live workers are registered.
var ErrNoWorkers = errors.New("cluster: no live workers registered")

// ErrKilled is returned by Worker.Run after a chaos kill (Worker.Kill or
// the fault injector's Kill mode) took the worker down mid-lease.
var ErrKilled = errors.New("cluster: worker killed")

// ProblemFactory instantiates the design problem a worker simulates;
// cmd/simnode uses core.StandardProblem, tests substitute faster engines.
// It must agree with the coordinator's problem for results to be
// meaningful — the lease carries (excite, horizon) so both sides build the
// identical problem.
type ProblemFactory func(excite, horizon float64) *core.Problem

package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/apiclient"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simcache"
)

// testKey is a canonical 64-hex fingerprint for peer-protocol tests.
var testKey = strings.Repeat("0123456789abcdef", 4)

// TestPeerFetchAndStoreRoundTrip drives both sides of the peer protocol
// over a real listener: a clean not-found counts nothing, a replication
// push lands in the owner's cache, and the subsequent fetch is answered —
// with the counters attributed to the right side of the wire.
func TestPeerFetchAndStoreRoundTrip(t *testing.T) {
	cacheB := simcache.New(simcache.Options{Capacity: 16})
	pB := newPeerCache("B", cacheB, time.Second, nil, obs.Nop())
	urlB, stopB, err := pB.serve("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer stopB()

	m := &ShardMap{Generation: 1, Shards: 1, Owners: []string{"B"},
		Peers: map[string]string{"B": urlB}}
	cacheA := simcache.New(simcache.Options{Capacity: 16})
	pA := newPeerCache("A", cacheA, time.Second, nil, obs.Nop())
	pA.adopt(m)
	ctx := context.Background()

	// First touch: the owner has nothing — a clean miss, not a timeout.
	if _, ok := pA.Fetch(ctx, testKey, "eng"); ok {
		t.Fatal("fetch of an unstored key answered")
	}
	if st := pA.stats(); st.PeerFetches != 0 || st.PeerTimeouts != 0 {
		t.Fatalf("clean not-found moved counters: %+v", st)
	}

	// Replicate to the owner; the next fetch is answered byte-for-byte.
	res := &sim.Result{FinalStoreV: 3.25, NetEnergyMargin: 1e-3}
	res.Node.Packets = 42
	pA.Store(ctx, testKey, "eng", res)
	got, ok := pA.Fetch(ctx, testKey, "eng")
	if !ok || got.FinalStoreV != 3.25 || got.NetEnergyMargin != 1e-3 || got.Node.Packets != 42 {
		t.Fatalf("fetch after store: ok=%v res=%+v", ok, got)
	}
	if st := pA.stats(); st.PeerFetches != 1 || st.PeerTimeouts != 0 {
		t.Fatalf("fetcher counters: %+v", st)
	}
	if st := pB.stats(); st.PeerServed != 1 || st.PeerStores != 1 {
		t.Fatalf("owner counters: %+v", st)
	}

	// The owner resolves its own keys locally — no self-dial.
	pB.adopt(m)
	if _, ok := pB.Fetch(ctx, testKey, "eng"); ok {
		t.Fatal("self-owned key must resolve locally, not over the wire")
	}
	if st := pB.stats(); st.PeerFetches != 0 {
		t.Fatalf("self-route counted a peer fetch: %+v", st)
	}

	// A fetcher behind the map generation is told so.
	api := apiclient.New(urlB, apiclient.Options{})
	var pg PeerGetResponse
	if err := api.Post(ctx, PathPeerGet, PeerGetRequest{
		ProtoHeader: ProtoHeader{ProtoVersion: ProtoVersion},
		Key:         testKey, Engine: "eng", Generation: 0,
	}, &pg); err != nil {
		t.Fatal(err)
	}
	if !pg.Found || !pg.Stale {
		t.Fatalf("stale-generation lookup: %+v", pg)
	}
}

// TestPeerAdoptKeepsNewestGeneration: adopt is monotonic — an older or
// equal map never replaces a newer one, whatever the call order.
func TestPeerAdoptKeepsNewestGeneration(t *testing.T) {
	p := newPeerCache("A", simcache.New(simcache.Options{Capacity: 4}), time.Second, nil, obs.Nop())
	if p.generation() != 0 {
		t.Fatalf("fresh peer generation %d", p.generation())
	}
	p.adopt(nil) // no-op
	p.adopt(&ShardMap{Generation: 2, Shards: 1, Owners: []string{"x"}})
	p.adopt(&ShardMap{Generation: 1, Shards: 1, Owners: []string{"y"}})
	p.adopt(&ShardMap{Generation: 2, Shards: 1, Owners: []string{"z"}})
	if g := p.generation(); g != 2 {
		t.Fatalf("generation %d after adoptions, want 2", g)
	}
	if id, _ := p.smap.Load().Owner("k"); id != "x" {
		t.Fatalf("an equal-generation map replaced the held one (owner %q)", id)
	}
}

// TestPeerFetchTimeoutFallsBackToLocal is the satellite acceptance test:
// with the key's owner hanging, the fetch times out, the point simulates
// locally (correct answer, engine executed once), and the failure is
// counted as a peer timeout — a slow peer costs latency, never the build.
func TestPeerFetchTimeoutFallsBackToLocal(t *testing.T) {
	// The owner never answers: each request is held until the test ends.
	// (Not on r.Context(): with an unread POST body the server can't see
	// the client hang up, and hang.Close would wait on the handler forever.)
	release := make(chan struct{})
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer hang.Close()
	defer close(release)

	cache := simcache.New(simcache.Options{Capacity: 16})
	peer := newPeerCache("A", cache, 30*time.Millisecond, nil, obs.Nop())
	peer.adopt(&ShardMap{Generation: 1, Shards: 1, Owners: []string{"B"},
		Peers: map[string]string{"B": hang.URL}})
	cache.SetRemote(peer)
	defer cache.SetRemote(nil)

	p := testProblem(0.6, 2)
	p.Runner = cache
	pt := testDesign(t).Runs[0]
	vals, _, err := p.RunPoint(context.Background(), 0, pt)
	if err != nil {
		t.Fatalf("run must survive a hanging peer: %v", err)
	}
	// Fetch timed out once and the engine ran locally; the (best-effort)
	// replication push also hits the hanging owner but is not a fetch
	// timeout.
	st := peer.stats()
	if st.PeerTimeouts != 1 {
		t.Fatalf("peer timeouts %d, want 1 (stats %+v)", st.PeerTimeouts, st)
	}
	if st.Misses != 1 || st.PeerFetches != 0 {
		t.Fatalf("fallback accounting wrong: %+v", st)
	}
	// The locally simulated answer is bit-identical to an uncached run.
	want, _, err := testProblem(0.6, 2).RunPoint(context.Background(), 0, pt)
	if err != nil {
		t.Fatal(err)
	}
	for id, w := range want {
		if vals[id] != w {
			t.Fatalf("response %s: %v != %v (fallback not bit-identical)", id, vals[id], w)
		}
	}
}

// TestPeerHandlerRejectsMalformedRequests pins the peer wire gates: wrong
// proto_version, non-fingerprint keys (path traversal) and empty pushes
// are all rejected with typed codes before touching the cache.
func TestPeerHandlerRejectsMalformedRequests(t *testing.T) {
	cache := simcache.New(simcache.Options{Capacity: 4})
	p := newPeerCache("B", cache, time.Second, nil, obs.Nop())
	url, stop, err := p.serve("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	api := apiclient.New(url, apiclient.Options{})
	ctx := context.Background()

	err = api.Post(ctx, PathPeerGet, PeerGetRequest{
		ProtoHeader: ProtoHeader{ProtoVersion: 1}, Key: testKey}, nil)
	if apiclient.ErrorCode(err) != "proto_mismatch" {
		t.Fatalf("v1 peer get: %v, want proto_mismatch", err)
	}
	err = api.Post(ctx, PathPeerGet, PeerGetRequest{
		ProtoHeader: ProtoHeader{ProtoVersion: ProtoVersion}, Key: "../../etc/passwd"}, nil)
	if apiclient.ErrorCode(err) != "invalid_request" {
		t.Fatalf("traversal key: %v, want invalid_request", err)
	}
	err = api.Post(ctx, PathPeerPut, PeerPutRequest{
		ProtoHeader: ProtoHeader{ProtoVersion: ProtoVersion}, Key: testKey, Result: nil}, nil)
	if apiclient.ErrorCode(err) != "invalid_request" {
		t.Fatalf("nil-result push: %v, want invalid_request", err)
	}
	if st := p.stats(); st.PeerServed != 0 || st.PeerStores != 0 {
		t.Fatalf("rejected requests moved counters: %+v", st)
	}
}

// cachedProblem is testProblem with the Runner left open, so the worker
// fronts runs with its own simcache — the sharded-tier configuration.
func cachedProblem(excite, horizon float64) *core.Problem {
	p := testProblem(excite, horizon)
	p.Runner = nil
	return p
}

// startCacheWorker runs a fleet worker that participates in the sharded
// cache tier: its simcache is both the runner chain and the peer-served
// store, with a real peer listener on a loopback port.
func startCacheWorker(t *testing.T, url, id string, runner simcache.Runner, cache *simcache.Cache) (*Worker, chan error) {
	t.Helper()
	w, err := NewWorker(WorkerConfig{
		Coordinator: url,
		ID:          id,
		Problem:     cachedProblem,
		Runner:      runner,
		Cache:       cache,
		PeerAddr:    "127.0.0.1:0",
		Concurrency: 2,
		Heartbeat:   10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- w.Run(context.Background()) }()
	return w, errc
}

// TestPeerOwnerKillChaosConverges is the cache-tier chaos e2e: the worker
// owning every shard range (it registered alone, so the whole key space is
// its "hot range") is killed mid-build. The coordinator declares it lost,
// reassigns its ranges to the survivors with a bumped generation, and the
// build still converges bit-identical to a local run — ownership is a
// routing hint, so losing the owner can cost re-simulation but never
// correctness.
func TestPeerOwnerKillChaosConverges(t *testing.T) {
	c := NewCoordinator(fastConfig()) // 250ms heartbeat timeout, 10ms tick
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	defer c.Shutdown()

	// The victim joins alone: generation 1 assigns it every slot, and it is
	// guaranteed to lease (and die holding) the first batch.
	inj := fault.New(fault.Config{Seed: 1, PKill: 1})
	victimCache := simcache.New(simcache.Options{Capacity: 64})
	victim, errcKill := startCacheWorker(t, srv.URL, "w-victim", inj.Wrap(victimCache), victimCache)
	inj.OnKill(victim.Kill)
	waitLive(t, c, 1)
	st := c.CacheState()
	if st.Map == nil || st.Map.Generation != 1 {
		t.Fatalf("lone member map: %+v", st.Map)
	}
	for slot, id := range st.Map.Owners {
		if id != "w-victim" {
			t.Fatalf("slot %d not owned by the lone victim: %q", slot, id)
		}
	}

	design := testDesign(t)
	done := startBuild(c, design)
	wantRunErr(t, errcKill, ErrKilled, "w-victim")

	caches := []*simcache.Cache{
		simcache.New(simcache.Options{Capacity: 64}),
		simcache.New(simcache.Options{Capacity: 64}),
	}
	_, errc1 := startCacheWorker(t, srv.URL, "w-ok-1", caches[0], caches[0])
	_, errc2 := startCacheWorker(t, srv.URL, "w-ok-2", caches[1], caches[1])

	var b built
	select {
	case b = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("chaos build never converged")
	}
	if b.err != nil {
		t.Fatal(b.err)
	}
	sameY(t, b.ds, localDataset(t, design))

	// The victim's ranges were re-owned under a bumped generation: two
	// healthy joins plus the loss means at least generation 3, and no slot
	// may still point at the corpse.
	st = c.CacheState()
	if st.Map.Generation < 3 {
		t.Fatalf("map generation %d after kill + 2 joins, want >= 3", st.Map.Generation)
	}
	for slot, id := range st.Map.Owners {
		if id == "w-victim" {
			t.Fatalf("slot %d still owned by the dead victim", slot)
		}
		if id != "w-ok-1" && id != "w-ok-2" {
			t.Fatalf("slot %d owned by %q, want a survivor", slot, id)
		}
	}
	for _, wv := range st.Workers {
		if wv.ID == "w-victim" && wv.State != workerLost {
			t.Fatalf("victim state %q, want lost", wv.State)
		}
	}
	// Every unique point was simulated by the survivors (the victim
	// reported nothing), and the fleet counters saw the engine work.
	if st.Totals.Misses == 0 {
		t.Fatalf("fleet totals never counted the survivors' work: %+v", st.Totals)
	}

	c.Shutdown()
	wantRunErr(t, errc1, nil, "w-ok-1")
	wantRunErr(t, errc2, nil, "w-ok-2")
}

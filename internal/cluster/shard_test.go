package cluster

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestAssignShardsDeterministic: the rendezvous assignment is a pure
// function of the member set — input order must not matter, and every slot
// must be owned.
func TestAssignShardsDeterministic(t *testing.T) {
	a := assignShards([]string{"w-a", "w-b", "w-c"}, DefaultShards)
	b := assignShards([]string{"w-c", "w-a", "w-b"}, DefaultShards)
	if !slices.Equal(a, b) {
		t.Fatal("assignment depends on member order")
	}
	counts := map[string]int{}
	for slot, id := range a {
		if id != "w-a" && id != "w-b" && id != "w-c" {
			t.Fatalf("slot %d owned by unknown %q", slot, id)
		}
		counts[id]++
	}
	// Rendezvous over 64 slots must give every member a share; a member
	// with zero slots would mean the hash degenerated.
	for id, n := range counts {
		if n == 0 {
			t.Fatalf("member %s owns no slots", id)
		}
	}
	if len(counts) != 3 {
		t.Fatalf("only %d members own slots: %v", len(counts), counts)
	}
}

// TestAssignShardsMinimalDisruption: a join may only capture slots (never
// shuffle ownership among the incumbents), and a leave may only move the
// leaver's slots.
func TestAssignShardsMinimalDisruption(t *testing.T) {
	base := assignShards([]string{"w-a", "w-b", "w-c"}, DefaultShards)
	joined := assignShards([]string{"w-a", "w-b", "w-c", "w-d"}, DefaultShards)
	for slot := range base {
		if joined[slot] != base[slot] && joined[slot] != "w-d" {
			t.Fatalf("join moved slot %d from %s to %s (not the joiner)",
				slot, base[slot], joined[slot])
		}
	}
	left := assignShards([]string{"w-a", "w-b"}, DefaultShards)
	for slot := range base {
		if base[slot] != "w-c" && left[slot] != base[slot] {
			t.Fatalf("leave of w-c moved slot %d from %s to %s",
				slot, base[slot], left[slot])
		}
	}
}

// TestShardOf: stable, in-range, and spreading.
func TestShardOf(t *testing.T) {
	key := strings.Repeat("ab", 32)
	s := ShardOf(key, DefaultShards)
	if s != ShardOf(key, DefaultShards) {
		t.Fatal("ShardOf is not stable")
	}
	if s < 0 || s >= DefaultShards {
		t.Fatalf("slot %d out of range", s)
	}
	if ShardOf(key, 0) != 0 {
		t.Fatal("zero shards must collapse to slot 0")
	}
	seen := map[int]bool{}
	for _, k := range []string{"k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8"} {
		seen[ShardOf(k, DefaultShards)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("8 keys landed on %d slot(s); the hash degenerated", len(seen))
	}
}

// TestShardMapOwner: nil and empty maps answer unowned; a populated map
// resolves both the ID and the peer URL.
func TestShardMapOwner(t *testing.T) {
	var nilMap *ShardMap
	if id, url := nilMap.Owner("k"); id != "" || url != "" {
		t.Fatalf("nil map owner: %q %q", id, url)
	}
	if id, _ := (&ShardMap{}).Owner("k"); id != "" {
		t.Fatalf("empty map owner: %q", id)
	}
	m := &ShardMap{
		Generation: 1,
		Shards:     1,
		Owners:     []string{"w-b"},
		Peers:      map[string]string{"w-b": "http://b"},
	}
	if id, url := m.Owner("anything"); id != "w-b" || url != "http://b" {
		t.Fatalf("owner: %q %q", id, url)
	}
}

// TestValidCacheKey gates the wire: only full 64-char lowercase-hex
// fingerprints may reach the cache (the disk tier uses keys as filenames).
func TestValidCacheKey(t *testing.T) {
	if !validCacheKey(strings.Repeat("0123456789abcdef", 4)) {
		t.Fatal("a canonical fingerprint was rejected")
	}
	for _, bad := range []string{
		"",
		strings.Repeat("a", 63),
		strings.Repeat("a", 65),
		strings.Repeat("A", 64),
		"../" + strings.Repeat("a", 61),
		strings.Repeat("a", 60) + ".bad",
	} {
		if validCacheKey(bad) {
			t.Fatalf("malformed key %q accepted", bad)
		}
	}
}

// TestCheckProto pins the typed version gate: the current version passes,
// anything else answers the structured mismatch error.
func TestCheckProto(t *testing.T) {
	ok := RegisterRequest{ProtoHeader: ProtoHeader{ProtoVersion: ProtoVersion}}
	if err := CheckProto(ok); err != nil {
		t.Fatalf("current version rejected: %v", err)
	}
	old := HeartbeatRequest{ProtoHeader: ProtoHeader{ProtoVersion: 1}}
	err := CheckProto(old)
	var pm *ProtoMismatchError
	if !errors.As(err, &pm) {
		t.Fatalf("got %T (%v), want *ProtoMismatchError", err, err)
	}
	if pm.Got != 1 || pm.Want != ProtoVersion {
		t.Fatalf("mismatch fields: %+v", pm)
	}
	if !strings.Contains(err.Error(), "1") || !strings.Contains(err.Error(), "2") {
		t.Fatalf("mismatch text lacks the versions: %v", err)
	}
}

// TestHTTPProtoAndFieldGates drives the wire-level contract on the plain
// coordinator handler: a wrong proto_version answers 400/proto_mismatch
// before any state changes, and an unknown field answers 400 bad_field
// under strict decoding. A well-formed v2 register succeeds.
func TestHTTPProtoAndFieldGates(t *testing.T) {
	c := NewCoordinator(fastConfig())
	defer c.Shutdown()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	post := func(body string) (int, map[string]string) {
		t.Helper()
		resp, err := http.Post(srv.URL+PathRegister, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env map[string]string
		json.NewDecoder(resp.Body).Decode(&env)
		return resp.StatusCode, env
	}

	status, env := post(`{"proto_version":1,"worker":"stale"}`)
	if status != http.StatusBadRequest || env["code"] != "proto_mismatch" {
		t.Fatalf("v1 register: %d %v, want 400 proto_mismatch", status, env)
	}
	if len(c.Workers()) != 0 {
		t.Fatal("a rejected register mutated fleet state")
	}

	status, env = post(`{"proto_version":2,"worker":"typo","sharld_count":64}`)
	if status != http.StatusBadRequest || env["code"] != "bad_field" {
		t.Fatalf("unknown field: %d %v, want 400 bad_field", status, env)
	}

	status, _ = post(`{"proto_version":2,"worker":"good"}`)
	if status != http.StatusOK {
		t.Fatalf("well-formed register: %d, want 200", status)
	}
}

// TestShardMapLifecycle walks the ownership protocol end to end through
// direct coordinator calls: registrations bump the generation, cache-less
// workers never enter the ring, lease-steal marks the holder suspect (its
// ranges move), a successful upload clears the suspicion, and a clean
// deregister both reassigns the ranges and keeps the fleet counters
// monotonic via the departed accumulator.
func TestShardMapLifecycle(t *testing.T) {
	cfg := fastConfig()
	cfg.HeartbeatTimeout = time.Minute // only steals and goodbyes move the map here
	cfg.LeaseTimeout = 40 * time.Millisecond
	cfg.Tick = 10 * time.Millisecond
	c := NewCoordinator(cfg)
	defer c.Shutdown()

	regA, err := c.Register(RegisterRequest{Worker: "a", PeerURL: "http://a"})
	if err != nil {
		t.Fatal(err)
	}
	if regA.Map == nil || regA.Map.Generation != 1 {
		t.Fatalf("first peer-capable register must publish generation 1: %+v", regA.Map)
	}
	for slot, id := range regA.Map.Owners {
		if id != "a" {
			t.Fatalf("slot %d owned by %q with one member", slot, id)
		}
	}

	// A cache-less worker joins the fleet but not the ring.
	if reg, _ := c.Register(RegisterRequest{Worker: "np"}); reg.Map.Generation != 1 {
		t.Fatalf("cache-less register bumped the map to %d", reg.Map.Generation)
	}

	regB, err := c.Register(RegisterRequest{Worker: "b", PeerURL: "http://b"})
	if err != nil {
		t.Fatal(err)
	}
	if regB.Map.Generation != 2 {
		t.Fatalf("second member: generation %d, want 2", regB.Map.Generation)
	}
	owners := map[string]bool{}
	for _, id := range regB.Map.Owners {
		owners[id] = true
	}
	if !owners["a"] || !owners["b"] || len(owners) != 2 {
		t.Fatalf("two-member ring owners: %v", owners)
	}

	// Heartbeats piggyback the map only when the worker is behind, and the
	// reported counters land in the fleet totals.
	hb := c.Heartbeat(HeartbeatRequest{Worker: "a", Epoch: regA.Epoch, Generation: 2,
		Cache: &CacheStats{Misses: 5, Hits: 2}})
	if hb.Map != nil {
		t.Fatalf("up-to-date heartbeat still carried a map: %+v", hb.Map)
	}
	if hb = c.Heartbeat(HeartbeatRequest{Worker: "a", Epoch: regA.Epoch, Generation: 1}); hb.Map == nil || hb.Map.Generation != 2 {
		t.Fatalf("stale heartbeat must carry the newer map: %+v", hb.Map)
	}
	if tot := c.CacheState().Totals; tot.Misses != 5 || tot.Hits != 2 {
		t.Fatalf("fleet totals: %+v", tot)
	}

	// Sitting on a lease past the timeout marks the holder suspect and
	// moves its ranges to the survivor.
	design := testDesign(t)
	done := startBuild(c, design)
	lr := leaseOrPoll(t, c, "a", regA.Epoch)
	deadline := time.Now().Add(5 * time.Second)
	var st CacheStateResponse
	for {
		st = c.CacheState()
		var a *CacheWorkerView
		for i := range st.Workers {
			if st.Workers[i].ID == "a" {
				a = &st.Workers[i]
			}
		}
		if a != nil && a.Suspect {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stolen lease never marked the holder suspect")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.Map.Generation != 3 {
		t.Fatalf("suspicion must bump the map: generation %d, want 3", st.Map.Generation)
	}
	for slot, id := range st.Map.Owners {
		if id != "b" {
			t.Fatalf("slot %d still owned by %q while a is suspect", slot, id)
		}
	}

	// A successful upload proves the worker responsive: suspicion lifts and
	// its ranges come back.
	if rr := c.Results(ResultsRequest{Worker: "a", Epoch: regA.Epoch, Lease: lr.Lease.ID,
		Results: runPoints(t, lr.Lease), Cache: &CacheStats{Misses: 9, Hits: 4}}); !rr.OK {
		t.Fatalf("results rejected: %+v", rr)
	}
	// A heartbeat snapshot taken before that upload but arriving after it
	// must not roll the counters back.
	c.Heartbeat(HeartbeatRequest{Worker: "a", Epoch: regA.Epoch, Generation: 4,
		Cache: &CacheStats{Misses: 5, Hits: 2}})
	st = c.CacheState()
	if st.Totals.Misses != 9 || st.Totals.Hits != 4 {
		t.Fatalf("stale heartbeat rolled the fleet totals back: %+v", st.Totals)
	}
	if st.Map.Generation != 4 {
		t.Fatalf("cleared suspicion must bump the map: generation %d, want 4", st.Map.Generation)
	}
	owners = map[string]bool{}
	for _, id := range st.Map.Owners {
		owners[id] = true
	}
	if !owners["a"] || !owners["b"] {
		t.Fatalf("ring after recovery: %v", owners)
	}

	// Finish the build through b, then say goodbye: b's ranges move to a
	// and its final counters stay in the totals via the departed
	// accumulator.
	if b := drainJob(t, c, "b", regB.Epoch, done); b.err != nil {
		t.Fatal(b.err)
	}
	before := c.CacheState().Totals
	c.Deregister(DeregisterRequest{Worker: "b", Epoch: regB.Epoch})
	st = c.CacheState()
	if st.Map.Generation != 5 {
		t.Fatalf("deregister must bump the map: generation %d, want 5", st.Map.Generation)
	}
	for slot, id := range st.Map.Owners {
		if id != "a" {
			t.Fatalf("slot %d owned by %q after b left", slot, id)
		}
	}
	if st.Totals.Misses < before.Misses || st.Totals.Hits < before.Hits {
		t.Fatalf("fleet counters dipped across a clean goodbye: %+v -> %+v", before, st.Totals)
	}
}

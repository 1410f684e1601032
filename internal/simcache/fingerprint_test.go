package simcache

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/tuner"
)

// TestAppendKeyMatchesFingerprint pins the contract that makes the pooled
// key path safe: appendKey over pointers, and Key over its pooled scratch,
// produce byte-for-byte the same hex digest as the public Fingerprint over
// values, so all three address the same cache entries (including the disk
// tier).
func TestAppendKeyMatchesFingerprint(t *testing.T) {
	d, cfg := testDesign(3.0), testConfig(10)
	tc := tuner.DefaultConfig()
	dTuned := testDesign(3.2)
	dTuned.Tuner = &tc

	cases := []struct {
		name   string
		engine string
		d      sim.Design
		cfg    sim.Config
	}{
		{"plain", "fast", d, cfg},
		{"tuned", "fast", dTuned, cfg},
		{"reference engine", "reference", d, testConfig(20)},
	}
	for _, c := range cases {
		want, err := Fingerprint(c.engine, c.d, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, err := appendKey(nil, c.engine, &c.d, &c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if string(got) != want {
			t.Fatalf("%s: appendKey %s != Fingerprint %s", c.name, got, want)
		}
		if key, err := Key(c.engine, c.d, c.cfg); err != nil || key != want {
			t.Fatalf("%s: Key %s (%v) != Fingerprint %s", c.name, key, err, want)
		}
	}
}

// TestFingerprintPointerTransparent: a non-nil pointer hashes as its
// pointee, so values and pointers to equal values share a digest. A nil
// pointer still hashes distinctly (it carries the pointer type tag).
func TestFingerprintPointerTransparent(t *testing.T) {
	d := testDesign(3.0)
	kv, err := Fingerprint(d)
	if err != nil {
		t.Fatal(err)
	}
	kp, err := Fingerprint(&d)
	if err != nil {
		t.Fatal(err)
	}
	if kv != kp {
		t.Fatal("pointer and value of the same design must share a fingerprint")
	}

	tc := tuner.DefaultConfig()
	dTuned := d
	dTuned.Tuner = &tc
	kt, err := Fingerprint(dTuned)
	if err != nil {
		t.Fatal(err)
	}
	if kt == kv {
		t.Fatal("nil and set tuner pointers must not alias")
	}
}

// TestAppendKeyZeroAllocs pins the cache-hit fingerprint cost at zero
// allocations per request once the pool and per-type caches are warm.
func TestAppendKeyZeroAllocs(t *testing.T) {
	d, cfg := testDesign(3.0), testConfig(10)
	buf := make([]byte, 0, 64)
	var err error
	// Warm up: pool entry, struct field-name caches, scratch growth.
	if buf, err = appendKey(buf[:0], "fast", &d, &cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		buf, err = appendKey(buf[:0], "fast", &d, &cfg)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("appendKey allocates %.2f objects/op, want 0", allocs)
	}
}

// TestCacheHitRunPathUsesPooledKey exercises Run twice with equal inputs
// and confirms the second resolves as a hit — i.e. the pooled appendKey
// digest addresses the entry the leader stored under a materialized key.
func TestCacheHitRunPathUsesPooledKey(t *testing.T) {
	c := New(Options{Capacity: 4})
	d, cfg := testDesign(3.0), testConfig(10)
	fn := func(sd sim.Design, sc sim.Config) (*sim.Result, error) {
		return &sim.Result{HarvestedEnergy: 1}, nil
	}
	if _, err := c.Run(ctx, "fast", fn, d, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ctx, "fast", fn, d, cfg); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("want 1 hit / 1 miss, got %+v", st)
	}
}

func BenchmarkFingerprint(b *testing.B) {
	d, cfg := testDesign(3.0), testConfig(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Fingerprint("fast", d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendKey(b *testing.B) {
	d, cfg := testDesign(3.0), testConfig(10)
	buf := make([]byte, 0, 64)
	var err error
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, err = appendKey(buf[:0], "fast", &d, &cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
}

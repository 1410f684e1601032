package node

import (
	"math"
	"math/rand"
	"testing"
)

func TestLinkValidate(t *testing.T) {
	if err := (LinkConfig{}).Validate(); err != nil {
		t.Fatal("zero link must be valid (ideal channel)")
	}
	bad := []LinkConfig{
		{LossProb: -0.1},
		{LossProb: 1.0},
		{MaxRetries: -1},
		{AckTime: -1},
		{RxI: -1},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("case %d not rejected", i)
		}
	}
}

func TestNewWithLinkValidation(t *testing.T) {
	if _, err := NewWithLink(Default(), AlwaysTransmit{}, LinkConfig{LossProb: 2}); err == nil {
		t.Fatal("invalid link must be rejected")
	}
}

func TestBuildBurstIdealLink(t *testing.T) {
	cfg := Default()
	// An ideal link never draws from the rng, so a node on one carries none.
	n, err := NewWithLink(cfg, AlwaysTransmit{}, LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if n.rng != nil {
		t.Fatal("a lossless link must not allocate an rng")
	}
	segs, delivered, lost, retries := buildBurst(cfg, LinkConfig{}, n.rng, 3)
	if delivered != 3 || lost != 0 || retries != 0 {
		t.Fatalf("ideal link outcome: %d/%d/%d", delivered, lost, retries)
	}
	if len(segs) != 3 {
		t.Fatalf("segments = %d, want 3 (one TX each)", len(segs))
	}
	for _, s := range segs {
		if s.dur != cfg.TxTime || s.current != cfg.McuI+cfg.TxI {
			t.Fatalf("bad segment %+v", s)
		}
	}
}

func TestBuildBurstWithAckWindows(t *testing.T) {
	cfg := Default()
	link := LinkConfig{AckTime: 2e-3, RxI: 12e-3}
	rng := rand.New(rand.NewSource(1))
	segs, delivered, _, _ := buildBurst(cfg, link, rng, 2)
	if delivered != 2 {
		t.Fatalf("delivered = %d", delivered)
	}
	if len(segs) != 4 { // TX, ACK, TX, ACK
		t.Fatalf("segments = %d, want 4", len(segs))
	}
	if segs[1].current != cfg.McuI+link.RxI || segs[1].dur != link.AckTime {
		t.Fatalf("ACK segment wrong: %+v", segs[1])
	}
}

func TestBuildBurstLossyStatistics(t *testing.T) {
	cfg := Default()
	link := LinkConfig{LossProb: 0.5, MaxRetries: 0}
	rng := rand.New(rand.NewSource(7))
	const n = 10000
	_, delivered, lost, _ := buildBurst(cfg, link, rng, n)
	if delivered+lost != n {
		t.Fatalf("accounting broken: %d + %d != %d", delivered, lost, n)
	}
	frac := float64(delivered) / n
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("delivery fraction %v, want ≈0.5", frac)
	}
}

func TestBuildBurstRetriesRecoverPackets(t *testing.T) {
	cfg := Default()
	rng := rand.New(rand.NewSource(9))
	const n = 5000
	// Without retries at 30 % loss: ≈70 % delivered.
	_, d0, _, _ := buildBurst(cfg, LinkConfig{LossProb: 0.3}, rng, n)
	// With 3 retries: ≈1−0.3⁴ ≈ 99.2 % delivered.
	_, d3, _, r3 := buildBurst(cfg, LinkConfig{LossProb: 0.3, MaxRetries: 3}, rng, n)
	if float64(d3)/n < 0.97 {
		t.Fatalf("retries delivered only %v", float64(d3)/n)
	}
	if d3 <= d0 {
		t.Fatalf("retries must improve delivery: %d vs %d", d3, d0)
	}
	if r3 == 0 {
		t.Fatal("retries not counted")
	}
}

func TestNodeWithLossyLinkEndToEnd(t *testing.T) {
	cfg := testConfig()
	link := LinkConfig{LossProb: 0.4, MaxRetries: 2, AckTime: 2e-3, RxI: 12e-3, Seed: 3}
	n, err := NewWithLink(cfg, AlwaysTransmit{}, link)
	if err != nil {
		t.Fatal(err)
	}
	run(t, n, 30, 1e-3, true, 3.5)
	c := n.Counters()
	if c.Packets == 0 {
		t.Fatal("no packets delivered")
	}
	if c.Retransmits == 0 {
		t.Fatal("40% loss must trigger retransmissions")
	}
	if c.Packets+c.LostPackets != c.Measurements-n.Buffered() {
		t.Fatalf("packet accounting: delivered %d + lost %d != attempted %d",
			c.Packets, c.LostPackets, c.Measurements-n.Buffered())
	}
	// The lossy link must cost more rail energy than the ideal one for
	// the same workload (retries + ACK listening).
	ideal, err := New(cfg, AlwaysTransmit{})
	if err != nil {
		t.Fatal(err)
	}
	run(t, ideal, 30, 1e-3, true, 3.5)
	if c.RailEnergy <= ideal.Counters().RailEnergy {
		t.Fatalf("lossy link energy %v not above ideal %v", c.RailEnergy, ideal.Counters().RailEnergy)
	}
}

func TestLossyLinkDeterministicBySeed(t *testing.T) {
	cfg := testConfig()
	link := LinkConfig{LossProb: 0.3, MaxRetries: 1, Seed: 11}
	mk := func() Counters {
		n, err := NewWithLink(cfg, AlwaysTransmit{}, link)
		if err != nil {
			t.Fatal(err)
		}
		run(t, n, 20, 1e-3, true, 3.5)
		return n.Counters()
	}
	a, b := mk(), mk()
	if a.Packets != b.Packets || a.Retransmits != b.Retransmits || a.LostPackets != b.LostPackets {
		t.Fatal("same seed must reproduce channel outcomes")
	}
}

func TestBrownoutMidBurstClearsIt(t *testing.T) {
	cfg := testConfig()
	cfg.TxTime = 50e-3 // long enough to interrupt mid-burst
	n, err := NewWithLink(cfg, AlwaysTransmit{}, LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Run until the node is inside a transmit burst: step to just past the
	// first measurement.
	run(t, n, 1.0+cfg.BootTime+0.02, 1e-3, true, 3.5)
	// Power fails regardless of exact phase; the node must recover and the
	// accounting stay consistent.
	n.Step(1e-3, false, 0)
	run(t, n, 3, 1e-3, true, 3.5)
	c := n.Counters()
	if c.Brownouts != 1 {
		t.Fatalf("brownouts = %d", c.Brownouts)
	}
	if c.Packets < 0 || math.IsNaN(c.FirstTxTime) && c.Packets > 0 {
		t.Fatal("inconsistent counters after mid-burst brownout")
	}
}

// Package node models the wireless sensor node that the harvester powers:
// a duty-cycled microcontroller with a sensing task, a packet radio, and an
// energy-manager policy that decides when to spend stored energy.
//
// The node is a three-phase state machine (sleep → measure → transmit →
// sleep) driven in fixed time slices by the system simulator. Power is
// accounted as current drawn from the regulated rail; when the regulator's
// undervoltage lockout drops the rail the node browns out, loses volatile
// state, and cold-boots once power returns — the behaviour that makes the
// choice of duty cycle, storage size and transmit threshold a genuine
// multi-parameter design problem (the design space the DoE flow explores).
package node

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
)

// Config sets the node hardware and firmware timing/power parameters.
// Currents are drawn from the regulated rail at VRail volts.
type Config struct {
	Period      float64 // base measurement period (s)
	MeasureTime float64 // sensing + ADC + processing duration (s)
	TxTime      float64 // radio transmit duration per packet (s)
	BootTime    float64 // cold-boot duration after a brownout (s)

	SleepI    float64 // sleep current (A)
	McuI      float64 // MCU active current (A)
	SensorI   float64 // sensor supply current during measurement (A)
	TxI       float64 // radio transmit current (A)
	VRail     float64 // regulated rail voltage (V)
	MaxBuffer int     // measurements bufferable while transmission is deferred
}

// Default returns a configuration typical of a low-power 802.15.4-class
// node (sleep ≈ 2 µA, MCU ≈ 3 mA, TX ≈ 17 mA at a 1.8 V rail).
func Default() Config {
	return Config{
		Period:      10,
		MeasureTime: 10e-3,
		TxTime:      5e-3,
		BootTime:    50e-3,
		SleepI:      2e-6,
		McuI:        3e-3,
		SensorI:     1e-3,
		TxI:         17e-3,
		VRail:       1.8,
		MaxBuffer:   16,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Period <= 0:
		return fmt.Errorf("node: period %g must be positive", c.Period)
	case c.MeasureTime <= 0:
		return fmt.Errorf("node: measure time %g must be positive", c.MeasureTime)
	case c.TxTime <= 0:
		return fmt.Errorf("node: tx time %g must be positive", c.TxTime)
	case c.BootTime < 0:
		return fmt.Errorf("node: boot time %g must be non-negative", c.BootTime)
	case c.SleepI < 0 || c.McuI < 0 || c.SensorI < 0 || c.TxI < 0:
		return fmt.Errorf("node: currents must be non-negative")
	case c.VRail <= 0:
		return fmt.Errorf("node: rail voltage %g must be positive", c.VRail)
	case c.MaxBuffer < 0:
		return fmt.Errorf("node: buffer size %d must be non-negative", c.MaxBuffer)
	case c.MeasureTime+c.TxTime >= c.Period:
		return fmt.Errorf("node: active time %g must fit inside the period %g",
			c.MeasureTime+c.TxTime, c.Period)
	}
	return nil
}

// SleepPower returns the rail power (W) drawn while sleeping.
func (c Config) SleepPower() float64 { return c.SleepI * c.VRail }

// CyclePowerBudget returns the average rail power (W) of one
// measure+transmit duty cycle at the base period — the first-order energy
// budget used for sanity checks and the behavioural fast path.
func (c Config) CyclePowerBudget() float64 {
	eMeasure := (c.McuI + c.SensorI) * c.VRail * c.MeasureTime
	eTx := (c.McuI + c.TxI) * c.VRail * c.TxTime
	eSleep := c.SleepI * c.VRail * (c.Period - c.MeasureTime - c.TxTime)
	return (eMeasure + eTx + eSleep) / c.Period
}

// Policy is the energy-manager decision logic consulted at each wake-up.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// ShouldTransmit reports whether the node should spend transmit energy
	// now, given the store voltage.
	ShouldTransmit(vstore float64) bool
	// NextPeriod returns the sleep period to schedule after this cycle,
	// given the store voltage and the configured base period.
	NextPeriod(vstore, base float64) float64
}

// AlwaysTransmit sends every measurement immediately regardless of the
// energy state — the naive baseline.
type AlwaysTransmit struct{}

// Name implements Policy.
func (AlwaysTransmit) Name() string { return "always" }

// ShouldTransmit implements Policy: always true.
func (AlwaysTransmit) ShouldTransmit(float64) bool { return true }

// NextPeriod implements Policy: the base period.
func (AlwaysTransmit) NextPeriod(_, base float64) float64 { return base }

// ThresholdPolicy transmits only while the store voltage is at or above
// VThreshold, buffering measurements otherwise.
type ThresholdPolicy struct {
	VThreshold float64
}

// Name implements Policy.
func (p ThresholdPolicy) Name() string { return fmt.Sprintf("threshold(%.2fV)", p.VThreshold) }

// ShouldTransmit implements Policy.
func (p ThresholdPolicy) ShouldTransmit(v float64) bool { return v >= p.VThreshold }

// NextPeriod implements Policy: the base period.
func (p ThresholdPolicy) NextPeriod(_, base float64) float64 { return base }

// AdaptivePolicy scales the duty-cycle period with the energy state: at or
// above VFull it runs at the base period; approaching VEmpty it stretches
// the period up to MaxScale×. It transmits whenever the store is above
// VEmpty.
type AdaptivePolicy struct {
	VEmpty   float64 // store voltage treated as exhausted
	VFull    float64 // store voltage treated as full
	MaxScale float64 // period multiplier at VEmpty (≥1)
}

// Name implements Policy.
func (p AdaptivePolicy) Name() string { return "adaptive" }

// ShouldTransmit implements Policy.
func (p AdaptivePolicy) ShouldTransmit(v float64) bool { return v > p.VEmpty }

// NextPeriod implements Policy: linear interpolation of the period scale
// between VFull (1×) and VEmpty (MaxScale×).
func (p AdaptivePolicy) NextPeriod(v, base float64) float64 {
	if p.VFull <= p.VEmpty || p.MaxScale <= 1 {
		return base
	}
	frac := (p.VFull - v) / (p.VFull - p.VEmpty)
	frac = math.Max(0, math.Min(1, frac))
	return base * (1 + frac*(p.MaxScale-1))
}

// phase is the node's current activity.
type phase int

const (
	phaseOff phase = iota
	phaseBoot
	phaseSleep
	phaseMeasure
	phaseTransmit
)

// Counters aggregates observable node outcomes over a simulation run —
// these are the performance indicators (responses) the RSMs are fitted to.
type Counters struct {
	Measurements int     // sensing tasks completed
	Packets      int     // packets DELIVERED (acknowledged when the link is lossy)
	LostPackets  int     // packets abandoned after exhausting retries
	Retransmits  int     // retry attempts beyond each packet's first
	SkippedTx    int     // wake-ups where the policy deferred transmission
	DroppedMeas  int     // measurements lost to a full buffer or brownout
	Brownouts    int     // power losses while the node was on
	UpTime       float64 // seconds powered
	DownTime     float64 // seconds unpowered
	RailEnergy   float64 // energy drawn from the rail (J)
	FirstTxTime  float64 // time of first packet (s); NaN if none
}

// countersJSON shadows FirstTxTime with a pointer so the "no packet yet"
// NaN sentinel — which encoding/json rejects — round-trips as null.
type countersJSON struct {
	countersAlias
	FirstTxTime *float64 `json:"FirstTxTime"`
}

type countersAlias Counters

// MarshalJSON encodes FirstTxTime's NaN sentinel as null.
func (c Counters) MarshalJSON() ([]byte, error) {
	cj := countersJSON{countersAlias: countersAlias(c)}
	if !math.IsNaN(c.FirstTxTime) {
		v := c.FirstTxTime
		cj.FirstTxTime = &v
	}
	return json.Marshal(cj)
}

// UnmarshalJSON restores the NaN sentinel from null (or a missing field).
func (c *Counters) UnmarshalJSON(b []byte) error {
	var cj countersJSON
	if err := json.Unmarshal(b, &cj); err != nil {
		return err
	}
	*c = Counters(cj.countersAlias)
	if cj.FirstTxTime != nil {
		c.FirstTxTime = *cj.FirstTxTime
	} else {
		c.FirstTxTime = math.NaN()
	}
	return nil
}

// Node is the sensor-node state machine.
type Node struct {
	cfg    Config
	policy Policy
	link   LinkConfig
	rng    *rand.Rand // nil on a lossless link

	state     phase
	phaseLeft float64 // time remaining in the current phase (s)
	buffered  int     // measurements waiting for transmission
	now       float64

	// Transmit-burst state: remaining constant-current segments and the
	// channel outcome to commit when the burst completes.
	burst       []burstSeg
	pendDeliver int
	pendLost    int
	pendRetries int

	c Counters
}

// New builds a node with the given configuration and policy over an ideal
// (lossless, zero-ACK) radio link.
func New(cfg Config, policy Policy) (*Node, error) {
	return NewWithLink(cfg, policy, LinkConfig{})
}

// NewWithLink builds a node whose radio behaves per link: lossy channel,
// ACK listen windows and bounded retransmission. Packets that exhaust
// their retries are abandoned (counted in Counters.LostPackets), not
// re-buffered.
func NewWithLink(cfg Config, policy Policy, link LinkConfig) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := link.Validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, fmt.Errorf("node: nil policy")
	}
	n := &Node{
		cfg:    cfg,
		policy: policy,
		link:   link,
		state:  phaseOff,
	}
	if link.LossProb > 0 {
		// Only a lossy channel draws from the rng (see buildBurst), so an
		// ideal link skips the ≈4.9 KB source; a batch of lanes holds one
		// node each.
		n.rng = rand.New(rand.NewSource(link.Seed))
	}
	n.c.FirstTxTime = math.NaN()
	return n, nil
}

// Counters returns a copy of the accumulated counters.
func (n *Node) Counters() Counters { return n.c }

// Buffered returns the number of measurements awaiting transmission.
func (n *Node) Buffered() int { return n.buffered }

// railCurrent returns the rail current of the active phase.
func (n *Node) railCurrent() float64 {
	switch n.state {
	case phaseOff:
		return 0
	case phaseBoot:
		return n.cfg.McuI
	case phaseSleep:
		return n.cfg.SleepI
	case phaseMeasure:
		return n.cfg.McuI + n.cfg.SensorI
	case phaseTransmit:
		if len(n.burst) > 0 {
			return n.burst[0].current
		}
		return n.cfg.McuI + n.cfg.TxI
	}
	return 0
}

// Step advances the node by dt seconds. powered reports whether the
// regulated rail is up, vstore is the store voltage the policy consults.
// It returns the average rail current (A) drawn over the slice.
func (n *Node) Step(dt float64, powered bool, vstore float64) float64 {
	if dt <= 0 {
		return 0
	}
	var charge float64 // ampere-seconds drawn this slice
	remaining := dt
	for remaining > 1e-15 {
		if !powered {
			if n.state != phaseOff {
				// Brownout: lose volatile state, including any burst in
				// flight.
				n.c.Brownouts++
				n.buffered = 0
				n.burst = nil
				n.pendDeliver, n.pendLost, n.pendRetries = 0, 0, 0
				n.state = phaseOff
			}
			n.c.DownTime += remaining
			n.now += remaining
			remaining = 0
			break
		}
		if n.state == phaseOff {
			// Power restored: cold boot.
			n.state = phaseBoot
			n.phaseLeft = n.cfg.BootTime
			if n.phaseLeft == 0 {
				n.enterSleep(vstore)
			}
		}
		seg := math.Min(remaining, n.phaseLeft)
		if seg <= 0 {
			seg = remaining
		}
		charge += n.railCurrent() * seg
		n.c.UpTime += seg
		n.now += seg
		n.phaseLeft -= seg
		remaining -= seg
		if n.phaseLeft <= 1e-15 {
			n.advancePhase(vstore)
		}
	}
	n.c.RailEnergy += charge * n.cfg.VRail
	return charge / dt
}

// enterSleep schedules the next wake according to the policy.
func (n *Node) enterSleep(vstore float64) {
	n.state = phaseSleep
	period := n.policy.NextPeriod(vstore, n.cfg.Period)
	sleep := period - n.cfg.MeasureTime - n.cfg.TxTime
	if sleep < 1e-3 {
		sleep = 1e-3
	}
	n.phaseLeft = sleep
}

// advancePhase moves to the next phase when the current one completes.
func (n *Node) advancePhase(vstore float64) {
	switch n.state {
	case phaseBoot:
		n.enterSleep(vstore)

	case phaseSleep:
		n.state = phaseMeasure
		n.phaseLeft = n.cfg.MeasureTime

	case phaseMeasure:
		n.c.Measurements++
		if n.buffered < n.cfg.MaxBuffer {
			n.buffered++
		} else {
			n.c.DroppedMeas++
		}
		if n.policy.ShouldTransmit(vstore) && n.buffered > 0 {
			n.burst, n.pendDeliver, n.pendLost, n.pendRetries =
				buildBurst(n.cfg, n.link, n.rng, n.buffered)
			n.state = phaseTransmit
			n.phaseLeft = n.burst[0].dur
		} else {
			n.c.SkippedTx++
			n.enterSleep(vstore)
		}

	case phaseTransmit:
		// One burst segment finished; move to the next or commit.
		n.burst = n.burst[1:]
		if len(n.burst) > 0 {
			n.phaseLeft = n.burst[0].dur
			return
		}
		n.c.Packets += n.pendDeliver
		n.c.LostPackets += n.pendLost
		n.c.Retransmits += n.pendRetries
		if n.pendDeliver > 0 && math.IsNaN(n.c.FirstTxTime) {
			n.c.FirstTxTime = n.now
		}
		n.buffered = 0
		n.pendDeliver, n.pendLost, n.pendRetries = 0, 0, 0
		n.enterSleep(vstore)
	}
}

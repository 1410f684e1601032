// Package sim couples every substrate into the complete
// harvester-powered-sensor-node transient simulator: vibration source →
// tunable electromagnetic harvester → voltage multiplier → supercapacitor →
// regulator → duty-cycled node, with the tuning controller closing the loop
// from the coil EMF back to the magnet gap.
//
// Two engines integrate the fast electromechanical dynamics:
//
//   - RunReference — the "traditional analogue simulation" path: implicit
//     trapezoidal integration with a damped Newton–Raphson solve (and a
//     finite-difference Jacobian) at every sub-step. Accurate, and slow in
//     exactly the way the paper says HDL/SPICE simulation is slow.
//   - RunFast — the explicit linearized state-space technique of companion
//     paper [4]: the piecewise-linear system (free / end-stop contact
//     regions) is discretized exactly per region with a zero-order-hold
//     matrix exponential, so each step is one small mat-vec. This is the
//     engine that makes building response surfaces affordable.
//
// Both engines share the identical slow side (multiplier, store, regulator,
// node, tuner), so their outputs differ only by integration error — the
// basis of reproduction experiment R-T1.
package sim

import (
	"fmt"
	"math"
	"time"

	"repro/internal/harvester"
	"repro/internal/la"
	"repro/internal/node"
	"repro/internal/ode"
	"repro/internal/power"
	"repro/internal/tuner"
	"repro/internal/vibration"
)

// Design is one point of the design space: the complete parameterization of
// the harvester-powered node. The DoE factors of DESIGN.md map onto fields
// of this struct.
type Design struct {
	Harv   harvester.Params
	Mult   power.MultiplierParams
	Store  power.Supercap
	Reg    power.Regulator
	Node   node.Config
	Policy node.Policy
	Link   node.LinkConfig // radio channel; zero value = ideal lossless link
	Tuner  *tuner.Config   // nil disables resonance tuning

	InitialGap    float64 // starting magnet gap (0 → GapMax, i.e. untuned)
	InitialStoreV float64 // supercap voltage at t = 0
}

// DefaultDesign returns the reference design: default harvester, 5-stage
// pump, 0.4 F store pre-charged to 3 V, threshold energy manager.
func DefaultDesign() Design {
	return Design{
		Harv:          harvester.Default(),
		Mult:          power.DefaultMultiplier(),
		Store:         power.DefaultSupercap(),
		Reg:           power.DefaultRegulator(),
		Node:          node.Default(),
		Policy:        node.ThresholdPolicy{VThreshold: 3.0},
		Tuner:         nil,
		InitialGap:    0,
		InitialStoreV: 3.0,
	}
}

// Validate checks the whole design.
func (d Design) Validate() error {
	if err := d.Harv.Validate(); err != nil {
		return err
	}
	if err := d.Mult.Validate(); err != nil {
		return err
	}
	if err := d.Store.Validate(); err != nil {
		return err
	}
	if err := d.Reg.Validate(); err != nil {
		return err
	}
	if err := d.Node.Validate(); err != nil {
		return err
	}
	if d.Policy == nil {
		return fmt.Errorf("sim: design needs an energy-manager policy")
	}
	if err := d.Link.Validate(); err != nil {
		return err
	}
	if d.Tuner != nil {
		if err := d.Tuner.Validate(); err != nil {
			return err
		}
	}
	if d.InitialStoreV < 0 {
		return fmt.Errorf("sim: initial store voltage %g must be non-negative", d.InitialStoreV)
	}
	return nil
}

// Config controls a simulation run.
type Config struct {
	Horizon float64          // simulated duration (s)
	DtSlow  float64          // slow-side step = fast-engine step (default 1 ms)
	DtRef   float64          // reference-engine sub-step (default 50 µs)
	Source  vibration.Source // excitation; required

	RecordWaveforms bool // keep decimated waveforms for figures
	Decimate        int  // record every k-th slow step (default 10)
}

// defaultDtSlow is the slow-side step used when Config.DtSlow is unset (s).
const defaultDtSlow = 1e-3

func (c *Config) defaults() error {
	if c.Horizon <= 0 {
		return fmt.Errorf("sim: horizon %g must be positive", c.Horizon)
	}
	if c.Source == nil {
		return fmt.Errorf("sim: a vibration source is required")
	}
	if c.DtSlow <= 0 {
		c.DtSlow = defaultDtSlow
	}
	if c.DtRef <= 0 {
		c.DtRef = 5e-5
	}
	if c.Decimate <= 0 {
		c.Decimate = 10
	}
	return nil
}

// Result carries the performance indicators (the DoE responses) plus work
// metrics and optional waveforms.
type Result struct {
	// Energy-side responses.
	HarvestedEnergy   float64 // energy delivered into the store (J)
	AvgHarvestedPower float64 // HarvestedEnergy / Horizon (W)
	ConsumedEnergy    float64 // energy drawn from the store by node + tuner (J)
	NodeEnergy        float64 // share drawn through the regulator for the node (J)
	LeakEnergy        float64 // energy lost to supercap self-discharge (J)
	NetEnergyMargin   float64 // harvested − consumed (J)
	StoredEnergyEnd   float64 // ½CV² at the horizon (J)
	FinalStoreV       float64 // store voltage at the horizon (V)

	// Node-side responses.
	Node           node.Counters
	UptimeFraction float64 // powered time / horizon

	// Tuner-side responses.
	TuneEnergy     float64 // actuator energy (J)
	TuneMoves      int
	TuneInBandFrac float64
	FinalResFreq   float64 // harvester resonance at the horizon (Hz)

	// Work metrics for the speed tables.
	Steps       int           // fast-dynamics integration steps
	NewtonIters int           // Newton iterations (reference engine only)
	FuncEvals   int           // RHS evaluations (reference engine only)
	Rebuilds    int           // ZOH rediscretizations performed (fast engine only)
	RebuildHits int           // rebuilds answered by the gap memo (fast engine only)
	Elapsed     time.Duration // wall-clock time of the run

	// Optional decimated waveforms (RecordWaveforms).
	T       []float64 // sample times (s)
	StoreV  []float64 // store voltage (V)
	Disp    []float64 // proof-mass displacement (m)
	EMF     []float64 // coil EMF (V)
	ResFreq []float64 // harvester resonance (Hz)
}

// slowSide is the part of the system identical across both engines: the
// envelope detector, multiplier, store, regulator, node and tuner.
type slowSide struct {
	d      Design
	nd     *node.Node
	ctrl   *tuner.Controller
	gap    float64
	vs     float64
	regOn  bool
	env    float64 // EMF amplitude envelope (V)
	envTau float64

	// Both engines call step with a fixed dt, so the two exponential decay
	// factors (envelope release, supercap leak) are constants of the run.
	// They are memoized on the dt they were computed for — recomputing on a
	// dt change keeps the values bit-identical to evaluating exp per step.
	decayDt   float64
	envDecay  float64
	leakDecay float64

	harvested float64
	consumed  float64
	nodeDrawn float64
	leaked    float64
}

// initialGap is the magnet gap a run starts from: InitialGap, or GapMax
// (untuned) when unset, clamped to the actuator's travel.
func initialGap(d Design) float64 {
	gap := d.InitialGap
	if gap == 0 {
		gap = d.Harv.GapMax
	}
	return d.Harv.ClampGap(gap)
}

func newSlowSide(d Design) (*slowSide, error) {
	nd, err := node.NewWithLink(d.Node, d.Policy, d.Link)
	if err != nil {
		return nil, err
	}
	gap := initialGap(d)
	s := &slowSide{
		d:      d,
		nd:     nd,
		gap:    gap,
		vs:     d.InitialStoreV,
		envTau: 0.05, // a few vibration cycles
	}
	if d.Tuner != nil {
		ctrl, err := tuner.New(*d.Tuner, d.Harv, gap)
		if err != nil {
			return nil, err
		}
		s.ctrl = ctrl
	}
	return s, nil
}

// step advances the slow side by dt given the coil EMF sample and the
// current excitation frequency (the charge pump's operating frequency). It
// returns the magnet gap for the next fast-dynamics step.
func (s *slowSide) step(dt, emf, excFreq float64) float64 {
	if dt != s.decayDt {
		s.decayDt = dt
		s.envDecay = math.Exp(-dt / s.envTau)
		s.leakDecay = s.d.Store.LeakFactor(dt)
	}
	// EMF envelope (peak detector with exponential release).
	s.env *= s.envDecay
	if a := math.Abs(emf); a > s.env {
		s.env = a
	}

	// Multiplier: EMF behind the coil resistance drives the pump input.
	vin := s.env * s.d.Mult.InputR / (s.d.Harv.CoilR + s.d.Mult.InputR)
	ichg := s.d.Mult.ChargeCurrent(vin, excFreq, s.vs)
	s.harvested += ichg * s.vs * dt

	// Tuner draws actuator power straight from the store.
	var iTune float64
	if s.ctrl != nil {
		p := s.ctrl.Step(dt, emf, s.vs)
		if p > 0 && s.vs > 0 {
			iTune = p / s.vs
		}
		s.gap = s.ctrl.Gap()
	}

	// Regulator UVLO and node activity.
	s.regOn = s.d.Reg.NextEnabled(s.regOn, s.vs)
	iRail := s.nd.Step(dt, s.regOn, s.vs)
	pLoad := iRail * s.d.Node.VRail
	iReg := s.d.Reg.InputCurrent(s.regOn, s.vs, pLoad)

	s.consumed += (iReg + iTune) * s.vs * dt
	s.nodeDrawn += iReg * s.vs * dt
	if s.d.Store.LeakR > 0 {
		s.leaked += s.vs * s.vs / s.d.Store.LeakR * dt
	}
	s.vs = s.d.Store.StepWithLeak(s.vs, dt, ichg, iReg+iTune, s.leakDecay)
	return s.gap
}

// finish assembles the shared responses into res.
func (s *slowSide) finish(res *Result, horizon float64) {
	res.HarvestedEnergy = s.harvested
	res.AvgHarvestedPower = s.harvested / horizon
	res.ConsumedEnergy = s.consumed
	res.NodeEnergy = s.nodeDrawn
	res.LeakEnergy = s.leaked
	res.NetEnergyMargin = s.harvested - s.consumed
	res.FinalStoreV = s.vs
	res.StoredEnergyEnd = s.d.Store.Energy(s.vs)
	res.Node = s.nd.Counters()
	res.UptimeFraction = res.Node.UpTime / horizon
	if s.ctrl != nil {
		res.TuneEnergy = s.ctrl.Energy()
		res.TuneMoves = s.ctrl.Moves()
		res.TuneInBandFrac = s.ctrl.InBandFraction()
	}
	res.FinalResFreq = s.d.Harv.ResonantFreq(s.gap)
}

// recorder captures decimated waveforms.
type recorder struct {
	cfg   Config
	d     Design
	count int
	res   *Result
}

// init preallocates the waveform traces to their exact final length,
// ceil(nSteps/Decimate), so the hot loop never grows them by append.
func (r *recorder) init(nSteps int) {
	if !r.cfg.RecordWaveforms || nSteps <= 0 {
		return
	}
	n := (nSteps + r.cfg.Decimate - 1) / r.cfg.Decimate
	r.res.T = make([]float64, 0, n)
	r.res.StoreV = make([]float64, 0, n)
	r.res.Disp = make([]float64, 0, n)
	r.res.EMF = make([]float64, 0, n)
	r.res.ResFreq = make([]float64, 0, n)
}

func (r *recorder) record(t, vs, x, emf, gap float64) {
	if !r.cfg.RecordWaveforms {
		return
	}
	if r.count%r.cfg.Decimate == 0 {
		r.res.T = append(r.res.T, t)
		r.res.StoreV = append(r.res.StoreV, vs)
		r.res.Disp = append(r.res.Disp, x)
		r.res.EMF = append(r.res.EMF, emf)
		r.res.ResFreq = append(r.res.ResFreq, r.d.Harv.ResonantFreq(gap))
	}
	r.count++
}

// region identifies the piecewise-linear regime of the end-stop.
type region int

const (
	regionFree region = iota
	regionUpper
	regionLower
)

func regionOf(x, limit float64) region {
	switch {
	case x > limit:
		return regionUpper
	case x < -limit:
		return regionLower
	default:
		return regionFree
	}
}

// gapMemoCap bounds the per-run rebuild memo. A tuning transient revisits
// the gaps of its previous excursions — the actuator retraces exact
// deterministic paths between estimator-quantized targets — so the memo
// must hold a full excursion's rebuild set to avoid sequential-scan
// thrashing; 32 entries is ~4 KB.
const gapMemoCap = 32

// gapEntry is one memoized rebuild: the baked region matrices for an exact
// gap value.
type gapEntry struct {
	bits uint64 // math.Float64bits of the gap
	tick uint64 // last-use stamp for LRU eviction
	ad   [3][9]float64
	bd   [3][6]float64
}

// gapMemo is a tiny LRU of rebuild results keyed by the gap's exact bit
// pattern. Exact-bit keying is the only quantization that keeps replay
// bit-identical to rebuilding from scratch; it still hits because the
// tuner's target gaps come from a discrete set (the frequency estimate is
// quantized by integer zero-crossing counts, and GapForFreq is
// deterministic), so settled and revisited gaps repeat exactly.
type gapMemo struct {
	entries [gapMemoCap]gapEntry
	n       int
	tick    uint64
}

func (g *gapMemo) lookup(bits uint64) *gapEntry {
	for i := 0; i < g.n; i++ {
		if g.entries[i].bits == bits {
			g.tick++
			g.entries[i].tick = g.tick
			return &g.entries[i]
		}
	}
	return nil
}

// slot returns the entry to fill for bits: a fresh slot while capacity
// lasts, then the least-recently-used one.
func (g *gapMemo) slot(bits uint64) *gapEntry {
	var e *gapEntry
	if g.n < gapMemoCap {
		e = &g.entries[g.n]
		g.n++
	} else {
		e = &g.entries[0]
		for i := 1; i < g.n; i++ {
			if g.entries[i].tick < e.tick {
				e = &g.entries[i]
			}
		}
	}
	g.tick++
	*e = gapEntry{bits: bits, tick: g.tick}
	return e
}

// rebuildTolHz is the resonance granularity below which a gap change does
// not justify a matrix rebuild (Hz). RunFast and RunBatch share it so their
// rebuild decisions are identical step for step.
const rebuildTolHz = 0.05

// modelGroup is the shared half of the fast engine's model: everything
// that depends only on (harvester, multiplier input R, dt) — the gap memo,
// the discretization workspace and its scratch matrices, plus the actual
// work counters. RunFast owns exactly one; RunBatch shares one across all
// lanes with identical parameters, so a rebuild performed by any lane
// answers every other lane's request for the same gap from the memo.
type modelGroup struct {
	h   harvester.Params
	rin float64
	dt  float64

	memo gapMemo
	ws   *la.ZOHWorkspace
	a    *la.Matrix // 3×3 continuous-time scratch
	b    *la.Matrix // 3×2 continuous-time scratch

	bakes     int // ZOH discretizations actually performed
	amortized int // lane rebuilds answered by another lane's bake (batch only)
}

func newModelGroup(h harvester.Params, rin, dt float64) *modelGroup {
	return &modelGroup{
		h:   h,
		rin: rin,
		dt:  dt,
		ws:  la.NewZOHWorkspace(3, 2),
		a:   la.NewMatrix(3, 3),
		b:   la.NewMatrix(3, 2),
	}
}

// bake discretizes the three piecewise-linear regions for gap and stores
// the result in the memo under bits, returning the filled entry. The float
// operations are exactly those of the pre-split fastModel.rebuild, so the
// baked matrices are bit-identical no matter which lane triggers the bake.
func (g *modelGroup) bake(bits uint64, gap float64) (*gapEntry, error) {
	k := g.h.EffectiveStiffness(gap)
	l := g.h.CoilL
	if l <= 0 {
		l = 1e-3 // tiny-but-finite inductance keeps the 3-state form uniform
	}
	rTot := g.h.CoilR + g.rin
	var fad [3][9]float64
	var fbd [3][6]float64
	build := func(r region, kEff, fOff float64) error {
		av := g.a.Data()
		av[0], av[1], av[2] = 0, 1, 0
		av[3], av[4], av[5] = -kEff/g.h.Mass, -g.h.DampingC/g.h.Mass, -g.h.Gamma/g.h.Mass
		av[6], av[7], av[8] = 0, g.h.Gamma/l, -rTot/l
		bv := g.b.Data()
		bv[0], bv[1] = 0, 0
		bv[2], bv[3] = -1, fOff/g.h.Mass
		bv[4], bv[5] = 0, 0
		ad, bd, err := g.ws.Discretize(g.a, g.b, g.dt)
		if err != nil {
			return err
		}
		copy(fad[r][:], ad.Data())
		copy(fbd[r][:], bd.Data())
		return nil
	}
	if err := build(regionFree, k, 0); err != nil {
		return nil, err
	}
	// In contact: stop spring adds stiffness and a constant restoring
	// offset ±StopK·MaxDisp.
	if err := build(regionUpper, k+g.h.StopK, g.h.StopK*g.h.MaxDisp); err != nil {
		return nil, err
	}
	if err := build(regionLower, k+g.h.StopK, -g.h.StopK*g.h.MaxDisp); err != nil {
		return nil, err
	}
	g.bakes++
	e := g.memo.slot(bits)
	e.ad, e.bd = fad, fbd
	return e, nil
}

// gapKeys replays the gapMemo LRU policy over one lane's own request
// stream without storing any matrices. RunBatch lanes use it to keep their
// per-lane Rebuilds/RebuildHits counters exactly what a solo RunFast of
// the same design would report, even though the actual matrix work is
// amortized through the shared group memo.
type gapKeys struct {
	bits [gapMemoCap]uint64
	tick [gapMemoCap]uint64
	n    int
	t    uint64
}

// request records one rebuild request and reports whether a lane-private
// memo would have missed it.
func (g *gapKeys) request(b uint64) bool {
	for i := 0; i < g.n; i++ {
		if g.bits[i] == b {
			g.t++
			g.tick[i] = g.t
			return false
		}
	}
	idx := 0
	if g.n < gapMemoCap {
		idx = g.n
		g.n++
	} else {
		for i := 1; i < gapMemoCap; i++ {
			if g.tick[i] < g.tick[idx] {
				idx = i
			}
		}
	}
	g.t++
	g.bits[idx] = b
	g.tick[idx] = g.t
	return true
}

// fastModel is the per-lane half of the fast engine's model: the lane's
// current gap and its baked per-region update matrices, flat row-major so
// step is straight-line float math — no method calls, no bounds checks, no
// allocations. State y = [x, v, i]; input u = [accel, 1] (the constant
// channel carries the end-stop offset force). Rebuild work lives in the
// (possibly shared) modelGroup.
type fastModel struct {
	g    *modelGroup
	gap  float64
	fres float64 // g.h.ResonantFreq(gap), cached for the drift check
	ad   [3][9]float64
	bd   [3][6]float64

	// shadow, when non-nil (batch lanes), keeps the as-if-alone counters
	// honest against the shared memo; nil (RunFast) mirrors the group memo
	// outcome directly.
	shadow *gapKeys

	rebuilds int // rebuilds a lane-private memo would have missed
	memoHits int // rebuilds a lane-private memo would have answered
}

func newFastModel(h harvester.Params, rin, dt float64) *fastModel {
	return &fastModel{g: newModelGroup(h, rin, dt)}
}

func (m *fastModel) rebuild(gap float64) error {
	m.gap = gap
	m.fres = m.g.h.ResonantFreq(gap)
	bits := math.Float64bits(gap)
	if m.shadow == nil {
		// Single lane: the group memo is the lane's own memo.
		if e := m.g.memo.lookup(bits); e != nil {
			m.ad, m.bd = e.ad, e.bd
			m.memoHits++
			return nil
		}
		e, err := m.g.bake(bits, gap)
		if err != nil {
			return err
		}
		m.ad, m.bd = e.ad, e.bd
		m.rebuilds++
		return nil
	}
	// Batch lane: count as-if-alone via the shadow LRU, then satisfy the
	// request from the shared memo (possibly baked by another lane).
	aloneMiss := m.shadow.request(bits)
	e := m.g.memo.lookup(bits)
	if e == nil {
		var err error
		if e, err = m.g.bake(bits, gap); err != nil {
			return err
		}
	} else if aloneMiss {
		m.g.amortized++ // another lane's bake answered this lane's rebuild
	}
	m.ad, m.bd = e.ad, e.bd
	if aloneMiss {
		m.rebuilds++
	} else {
		m.memoHits++
	}
	return nil
}

// step performs one explicit linearized update: y ← Ad·y + Bd·u. The body
// is straight-line float math over the baked arrays: zero method calls,
// zero bounds checks, zero allocations.
func (m *fastModel) step(y *[3]float64, accel float64) {
	ad, bd := &m.ad[regionFree], &m.bd[regionFree]
	if x := y[0]; x > m.g.h.MaxDisp {
		ad, bd = &m.ad[regionUpper], &m.bd[regionUpper]
	} else if x < -m.g.h.MaxDisp {
		ad, bd = &m.ad[regionLower], &m.bd[regionLower]
	}
	y0, y1, y2 := y[0], y[1], y[2]
	o0 := ad[0]*y0 + ad[1]*y1 + ad[2]*y2 + bd[0]*accel + bd[1]
	o1 := ad[3]*y0 + ad[4]*y1 + ad[5]*y2 + bd[2]*accel + bd[3]
	o2 := ad[6]*y0 + ad[7]*y1 + ad[8]*y2 + bd[4]*accel + bd[5]
	y[0], y[1], y[2] = o0, o1, o2
}

// RunFast simulates the design with the explicit linearized state-space
// engine.
func RunFast(d Design, cfg Config) (*Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	start := time.Now()
	slow, err := newSlowSide(d)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	rec := &recorder{cfg: cfg, d: d, res: res}

	model := newFastModel(d.Harv, d.Mult.InputR, cfg.DtSlow)
	if err := model.rebuild(slow.gap); err != nil {
		return nil, err
	}

	var y [3]float64 // x, v, i
	nSteps := int(math.Ceil(cfg.Horizon / cfg.DtSlow))
	rec.init(nSteps)
	// The gap only moves while the tuner's actuator does, so the drift
	// check memoizes the resonance of the last gap it saw (and model.fres
	// caches the resonance at the matrices' own gap). Without a tuner the
	// gap is constant and the check is skipped outright — either way the
	// comparison sees exactly the values the unmemoized form would.
	tunerOn := slow.ctrl != nil
	gamma := d.Harv.Gamma // EMF(v) = Gamma·v, inlined for the hot loop
	lastGap, lastFres := slow.gap, model.fres
	for k := 0; k < nSteps; k++ {
		t := float64(k) * cfg.DtSlow
		// Midpoint sampling of the excitation halves the ZOH phase error.
		accel := cfg.Source.Accel(t + cfg.DtSlow/2)
		model.step(&y, accel)

		emf := gamma * y[1]
		gap := slow.step(cfg.DtSlow, emf, cfg.Source.DominantFreq(t))
		if tunerOn {
			if gap != lastGap {
				lastGap, lastFres = gap, d.Harv.ResonantFreq(gap)
			}
			if math.Abs(lastFres-model.fres) > rebuildTolHz {
				if err := model.rebuild(gap); err != nil {
					return nil, err
				}
			}
		}
		rec.record(t+cfg.DtSlow, slow.vs, y[0], emf, gap)
	}
	res.Steps = nSteps
	res.Rebuilds = model.rebuilds
	res.RebuildHits = model.memoHits
	slow.finish(res, cfg.Horizon)
	res.Elapsed = time.Since(start)
	return res, nil
}

// RunReference simulates the design with the implicit trapezoidal
// Newton–Raphson engine, sub-stepping each slow interval at cfg.DtRef.
func RunReference(d Design, cfg Config) (*Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	start := time.Now()
	slow, err := newSlowSide(d)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	rec := &recorder{cfg: cfg, d: d, res: res}

	l := d.Harv.CoilL
	if l <= 0 {
		l = 1e-3
	}
	rTot := d.Harv.CoilR + d.Mult.InputR
	gap := slow.gap
	var tBase float64
	sys := ode.Func{N: 3, F: func(tt float64, y, dy []float64) {
		a := cfg.Source.Accel(tBase + tt)
		k := d.Harv.EffectiveStiffness(gap)
		dy[0] = y[1]
		dy[1] = (-k*y[0] - d.Harv.DampingC*y[1] - d.Harv.StopForce(y[0]) -
			d.Harv.Gamma*y[2] - d.Harv.Mass*a) / d.Harv.Mass
		dy[2] = (d.Harv.Gamma*y[1] - rTot*y[2]) / l
	}}

	y := []float64{0, 0, 0}
	icfg := ode.ImplicitConfig{}
	nSteps := int(math.Ceil(cfg.Horizon / cfg.DtSlow))
	rec.init(nSteps)
	for k := 0; k < nSteps; k++ {
		t := float64(k) * cfg.DtSlow
		tBase = t
		yEnd, st, err := ode.ImplicitTrapezoidal(sys, 0, cfg.DtSlow, cfg.DtRef, y, icfg, nil)
		if err != nil {
			return nil, fmt.Errorf("sim: reference engine failed at t=%g: %w", t, err)
		}
		copy(y, yEnd)
		res.Steps += st.Steps
		res.NewtonIters += st.NewtonIters
		res.FuncEvals += st.FuncEvals

		emf := d.Harv.EMF(y[1])
		gap = slow.step(cfg.DtSlow, emf, cfg.Source.DominantFreq(t))
		rec.record(t+cfg.DtSlow, slow.vs, y[0], emf, gap)
	}
	slow.finish(res, cfg.Horizon)
	res.Elapsed = time.Since(start)
	return res, nil
}

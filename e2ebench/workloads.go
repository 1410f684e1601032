package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// Workload names.
const (
	buildCold = "build-cold"
	buildWarm = "build-warm"
	serveMix  = "serve-mix"
)

var workloadNames = []string{buildCold, buildWarm, serveMix}

// buildPath is one of the four ways a designer builds surfaces.
type buildPath struct {
	name string
	req  func(model string, excite, horizon float64) serve.BuildRequest
}

// buildPaths run in this fixed order in every workload's build stream.
var buildPaths = []buildPath{
	{"fixed", func(m string, e, h float64) serve.BuildRequest {
		return serve.BuildRequest{Model: m, Excite: e, Horizon: h}
	}},
	{"batch", func(m string, e, h float64) serve.BuildRequest {
		return serve.BuildRequest{Model: m, Excite: e, Horizon: h, Engine: serve.EngineBatch}
	}},
	{"adaptive", func(m string, e, h float64) serve.BuildRequest {
		return serve.BuildRequest{Model: m, Excite: e, Horizon: h, Strategy: serve.StrategyAdaptive}
	}},
	{"cluster", func(m string, e, h float64) serve.BuildRequest {
		return serve.BuildRequest{Model: m, Excite: e, Horizon: h, Pool: serve.PoolCluster}
	}},
}

// servedModels are built in set-up and answer every read.
var servedModels = []string{"served-a", "served-b"}

// Seed streams: each kind of generated input draws from its own stream, so
// adding draws to one never shifts another.
const (
	streamServed = iota + 1
	streamWarm
	streamCold
	streamCheck
	streamBodies
	streamArrivals
)

func stream(seed int64, s int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + s))
}

// buildSample is one finished (or failed) build.
type buildSample struct {
	path   string
	id     string    // X-Request-ID of the submit
	submit time.Time // submit time, or due time for serve-mix rebuilds
	view   serve.JobView
	err    error
}

// latency runs from submit (or due) to the job's finished_at; both are
// read from this host's wall clock.
func (b buildSample) latency() (time.Duration, error) {
	if b.err != nil {
		return 0, b.err
	}
	fin, err := time.Parse(time.RFC3339Nano, b.view.FinishedAt)
	if err != nil {
		return 0, fmt.Errorf("job %s finished_at %q: %w", b.view.ID, b.view.FinishedAt, err)
	}
	return fin.Sub(b.submit), nil
}

// passConfig is one measured pass of a workload.
type passConfig struct {
	workload string
	seed     int64
	dur      time.Duration
	set      settings
	tr       *tracer // nil: untraced
	conns    int     // client connections, at most nproc
}

// pass is everything one pass measured. Set-up and the output checks run
// outside the measured region.
type pass struct {
	cfg    passConfig
	setups []time.Duration
	builds []buildSample // measured builds
	reads  []arrival
	outs   []outcome
	phases []phase
	start  time.Time // schedule start
	heapMB float64
	checks []string // failed output checks

	// Per-layer inputs: deltas across the measured region.
	scrape  map[string]float64
	fleet   cluster.CacheStats
	stolen  int
	misses  uint64
	mallocs uint64
	gcs     uint32
	spans   []span
}

// runPass sets up the workload setup_repeats times (keeping the last
// stack), measures it, checks the outputs and tears it down.
func runPass(cfg passConfig) (*pass, error) {
	p := &pass{cfg: cfg}
	var s *stack
	var warm [][]float64
	for k := 0; k < cfg.set.SetupRepeats; k++ {
		if s != nil {
			s.close()
		}
		start := time.Now()
		var err error
		s, warm, err = setUp(cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.setups = append(p.setups, time.Since(start))
	}
	defer s.close()

	var detail serve.ModelDetail
	if err := s.getJSON("/v1/models/"+servedModels[0], &detail); err != nil {
		return nil, err
	}
	gen := newBodies(stream(cfg.seed, streamBodies), cfg.set.Reads, servedModels, detail)
	// The schedule and its outcome slots are built before the heap
	// baseline, so heap_peak_mb leaves the generator's own memory out.
	p.plan(gen)
	stopHeap := sampleHeap(&p.heapMB)
	before, err := p.snapshot(s)
	if err != nil {
		stopHeap()
		return nil, err
	}

	cfg.tr.setOn(true)
	switch cfg.workload {
	case buildCold, buildWarm:
		p.runBuilds(s, warm)
	case serveMix:
		p.runServeMix(s)
	}
	stopHeap()
	cfg.tr.setOn(false)
	after, err := p.snapshot(s)
	if err != nil {
		return nil, err
	}
	p.delta(before, after)
	if cfg.tr != nil {
		p.spans = cfg.tr.snapshot()
	}
	p.checks = p.check(s, gen)
	return p, nil
}

// setUp stands up a stack and builds what the workload starts from: the
// served models and, for build-warm, the warm pool of excitations per
// build path. It returns the warm excitations by path.
func setUp(cfg passConfig) (*stack, [][]float64, error) {
	s, err := newStack(cfg.set.FleetWorkers, cfg.set.fleetPoll(), cfg.tr)
	if err != nil {
		return nil, nil, err
	}
	h := cfg.set.HorizonS
	rng := stream(cfg.seed, streamServed)
	for _, m := range servedModels {
		if _, err := s.build(buildPaths[0].req(m, excite(rng, cfg.set), h), "", cfg.set.jobPoll()); err != nil {
			s.close()
			return nil, nil, err
		}
	}
	if cfg.workload != buildWarm {
		return s, nil, nil
	}
	warm := make([][]float64, len(buildPaths))
	rng = stream(cfg.seed, streamWarm)
	for pi, bp := range buildPaths {
		for i := 0; i < cfg.set.WarmPool; i++ {
			e := excite(rng, cfg.set)
			warm[pi] = append(warm[pi], e)
			if _, err := s.build(bp.req("warm-"+bp.name, e, h), "", cfg.set.jobPoll()); err != nil {
				s.close()
				return nil, nil, err
			}
		}
	}
	return s, warm, nil
}

func excite(rng *rand.Rand, set settings) float64 {
	return set.ExciteMin + rng.Float64()*(set.ExciteMax-set.ExciteMin)
}

// build submits one build on the control client and waits for it; a job
// that ends in any state but done is an error.
func (s *stack) build(req serve.BuildRequest, reqID string, poll time.Duration) (serve.JobView, error) {
	id, err := s.submit(s.client, req, reqID)
	if err != nil {
		return serve.JobView{}, err
	}
	v, err := s.waitJob(s.client, id, poll)
	if err == nil && v.State != string(serve.JobDone) {
		err = fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
	}
	return v, err
}

// readClients returns n single-connection clients.
func readClients(n int) []*http.Client {
	cs := make([]*http.Client, n)
	for i := range cs {
		cs[i] = newClient()
	}
	return cs
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// plan lays out the workload's arrival schedule and its outcome slots.
// build-cold and build-warm end with a quiet read probe at the reference
// rate, so they report the read metrics too without perturbing the builds
// they exist to measure. serve-mix steps Poisson reads through the rate
// ladder, the reference rate first; beside them a rebuild arrives every
// rebuild_interval_s on the same schedule, cycling the build paths, and
// each hot-swaps the first served model.
func (p *pass) plan(gen *bodies) {
	cfg := p.cfg
	r := cfg.set.Reads
	if cfg.workload != serveMix {
		p.phases = []phase{{rps: r.ReferenceRPS, dur: time.Duration(r.ProbeShare * float64(cfg.dur))}}
		p.reads = schedule(stream(cfg.seed, streamArrivals), p.phases, gen.read)
	} else {
		ref := time.Duration(r.ReferenceShare * float64(cfg.dur))
		p.phases = []phase{{rps: r.ReferenceRPS, dur: ref}}
		rest := r.LadderRPS[1:]
		for _, rps := range rest {
			p.phases = append(p.phases, phase{rps: rps, dur: (cfg.dur - ref) / time.Duration(len(rest))})
		}
		p.reads = schedule(stream(cfg.seed, streamArrivals), p.phases, gen.read)
		cold := stream(cfg.seed, streamCold)
		every := time.Duration(cfg.set.RebuildEveryS * float64(time.Second))
		h := cfg.set.HorizonS
		for i, t := 0, every/2; t < cfg.dur; i, t = i+1, t+every {
			bp := buildPaths[i%len(buildPaths)]
			body := mustJSON(bp.req(servedModels[0], excite(cold, cfg.set), h))
			p.reads = append(p.reads, arrival{due: t, phase: phaseAt(p.phases, t),
				req: &request{kind: kindBuild, path: "/v1/build", body: body, build: bp.name}})
		}
	}
	number(p.reads, fmt.Sprintf("r%d", cfg.seed))
	p.outs = make([]outcome, len(p.reads))
}

// runBuilds is build-cold and build-warm: one closed-loop designer cycles
// the build paths, waiting for each build before submitting the next,
// then the planned read probe runs on every connection.
func (p *pass) runBuilds(s *stack, warm [][]float64) {
	cfg := p.cfg
	end := time.Now().Add(cfg.dur - p.phases[0].dur)
	cold := stream(cfg.seed, streamCold)
	h := cfg.set.HorizonS
	for i := 0; time.Now().Before(end); i++ {
		pi := i % len(buildPaths)
		bp := buildPaths[pi]
		var e float64
		if warm != nil {
			e = warm[pi][(i/len(buildPaths))%len(warm[pi])]
		} else {
			e = excite(cold, cfg.set)
		}
		b := buildSample{path: bp.name, id: fmt.Sprintf("b%d-build-%d", cfg.seed, i)}
		req := bp.req("designer-"+bp.name, e, h)
		b.submit = time.Now()
		id, err := s.submit(s.client, req, b.id)
		cfg.tr.record(spanSubmit, 0, 0, b.id, bp.name, b.submit, time.Now())
		if err == nil {
			b.view, err = s.waitJob(s.client, id, cfg.set.jobPoll())
		}
		b.err = err
		p.builds = append(p.builds, b)
	}

	clients := readClients(cfg.conns)
	defer closeClients(clients)
	p.start = time.Now()
	runSchedule(p.start, s.url, clients, p.reads, p.outs, cfg.tr, cfg.tr != nil)
}

// runServeMix is serve-mix: the planned reads and rebuilds run on every
// connection. Only rebuilds due in the reference rung count toward the
// build metrics.
func (p *pass) runServeMix(s *stack) {
	cfg := p.cfg
	clients := readClients(cfg.conns)
	defer closeClients(clients)

	p.start = time.Now()
	runSchedule(p.start, s.url, clients, p.reads, p.outs, cfg.tr, cfg.tr != nil)
	for i, a := range p.reads {
		if a.req.kind != kindBuild {
			continue
		}
		o := p.outs[i]
		b := buildSample{path: a.req.build, id: a.id, submit: p.start.Add(a.due)}
		if !o.ok() {
			b.err = fmt.Errorf("POST /v1/build: status %d: %v", o.status, o.err)
		} else {
			b.view, b.err = s.waitJob(s.client, o.jobID, cfg.set.jobPoll())
		}
		p.builds = append(p.builds, b)
	}
}

// phaseAt returns the index of the phase containing offset t.
func phaseAt(phases []phase, t time.Duration) int {
	var end time.Duration
	for i, ph := range phases {
		end += ph.dur
		if t < end {
			return i
		}
	}
	return len(phases) - 1
}

// snap is the program state the per-layer metrics difference.
type snap struct {
	scrape  map[string]float64
	cache   cluster.CacheStateResponse
	workers cluster.WorkersResponse
	misses  uint64
	mem     runtime.MemStats
}

func (p *pass) snapshot(s *stack) (snap, error) {
	var sn snap
	status, _, b, err := call(s.client, http.MethodGet, s.url+"/metrics", "", nil)
	if err != nil {
		return sn, err
	}
	if status != http.StatusOK {
		return sn, fmt.Errorf("GET /metrics: status %d", status)
	}
	sn.scrape = parseProm(string(b))
	if err := s.getJSON(cluster.PathCache, &sn.cache); err != nil {
		return sn, err
	}
	if err := s.getJSON(cluster.PathWorkers, &sn.workers); err != nil {
		return sn, err
	}
	sn.misses = s.cache.Stats().Misses
	for _, wc := range s.wcaches {
		sn.misses += wc.Stats().Misses
	}
	runtime.ReadMemStats(&sn.mem)
	return sn, nil
}

func (p *pass) delta(a, b snap) {
	p.scrape = make(map[string]float64, len(b.scrape))
	for k, v := range b.scrape {
		p.scrape[k] = v - a.scrape[k]
	}
	p.fleet = b.cache.Totals
	p.fleet.Hits -= a.cache.Totals.Hits
	p.fleet.PeerFetches -= a.cache.Totals.PeerFetches
	p.fleet.PeerTimeouts -= a.cache.Totals.PeerTimeouts
	stolen := func(r cluster.WorkersResponse) int {
		n := 0
		for _, w := range r.Workers {
			n += w.StolenLeases
		}
		return n
	}
	p.stolen = stolen(b.workers) - stolen(a.workers)
	p.misses = b.misses - a.misses
	p.mallocs = b.mem.Mallocs - a.mem.Mallocs
	p.gcs = b.mem.NumGC - a.mem.NumGC
}

// parseProm reads Prometheus text exposition into series → value.
func parseProm(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// series sums every series of a metric whose labels contain one of the
// given label sets (all series when none are given).
func series(m map[string]float64, name string, labels ...string) float64 {
	t := 0.0
	for k, v := range m {
		base, lab, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		if len(labels) == 0 {
			t += v
			continue
		}
		for _, l := range labels {
			if strings.Contains(lab, l) {
				t += v
				break
			}
		}
	}
	return t
}

// sampleHeap forces a collection and takes the live heap as its baseline,
// then records, in MB, the peak by which the live heap (as each collection
// marks it) rises above that baseline, until the returned stop function is
// called; stop waits for the sampler to exit. Memory held since before the
// call, such as the planned schedule, is in the baseline and not counted.
func sampleHeap(peak *float64) (stop func()) {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	runtime.GC()
	metrics.Read(sample)
	base := sample[0].Value.Uint64()
	done := make(chan struct{})
	exited := make(chan struct{})
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > base {
			if mb := float64(v-base) / (1 << 20); mb > *peak {
				*peak = mb
			}
		}
	}
	go func() {
		defer close(exited)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

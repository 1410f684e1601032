package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// kind is what an arrival asks the server to do.
type kind uint8

const (
	kindPredict kind = iota
	kindSweep
	kindOptimize
	kindBuild // serve-mix rebuild: POST /v1/build, latency read from the job
	numKinds
)

var kindNames = [numKinds]string{"predict", "sweep", "optimize", "build"}

func (k kind) String() string { return kindNames[k] }

// request is one prebuilt HTTP request body.
type request struct {
	kind  kind
	path  string
	body  []byte
	hot   bool   // drawn from the fixed hot set
	build string // kindBuild: the build path
}

// arrival is one scheduled request: due is its offset from the schedule's
// start, phase the ladder rung it belongs to.
type arrival struct {
	due   time.Duration
	phase int
	id    string // X-Request-ID
	req   *request
}

// outcome is what happened to one arrival. Times are offsets from the
// schedule's start, so latency and lateness are both counted from due.
type outcome struct {
	sent, done time.Duration
	status     int
	memo       bool
	err        error
	jobID      string // kindBuild: the queued job
	evals      int    // kindOptimize, traced runs only
}

func (o outcome) ok() bool { return o.err == nil && o.status >= 200 && o.status < 300 }

// phase is one constant-rate stretch of the schedule.
type phase struct {
	rps float64
	dur time.Duration
}

// bodies generates read bodies against the served models' factor ranges.
// The hot set holds nPredict predict bodies followed by sweep bodies.
type bodies struct {
	rng      *rand.Rand
	r        reads
	models   []string
	factors  []serve.FactorView
	resps    []string
	hot      []*request
	nPredict int
}

func newBodies(rng *rand.Rand, r reads, models []string, d serve.ModelDetail) *bodies {
	b := &bodies{rng: rng, r: r, models: models, factors: d.Factors, resps: d.Responses}
	// The hot set keeps the predict:sweep ratio of the mix, with at least
	// one body of each kind.
	share := r.Mix["predict"] / (r.Mix["predict"] + r.Mix["sweep"])
	b.nPredict = min(max(int(math.Round(share*float64(r.HotSet))), 1), r.HotSet-1)
	for i := 0; i < r.HotSet; i++ {
		k := kindSweep
		if i < b.nPredict {
			k = kindPredict
		}
		q := b.fresh(k)
		q.hot = true
		b.hot = append(b.hot, q)
	}
	return b
}

func (b *bodies) model() string { return b.models[b.rng.Intn(len(b.models))] }

// fresh builds a unique body of kind k.
func (b *bodies) fresh(k kind) *request {
	var v any
	path := "/v1/" + k.String()
	switch k {
	case kindPredict:
		pts := make([][]float64, 1+b.rng.Intn(b.r.PredictMax))
		for i := range pts {
			pts[i] = make([]float64, len(b.factors))
			for j, f := range b.factors {
				pts[i][j] = f.Min + b.rng.Float64()*(f.Max-f.Min)
			}
		}
		v = serve.PredictRequest{Model: b.model(), Points: pts}
	case kindSweep:
		v = serve.SweepRequest{Model: b.model(),
			Response: b.resps[b.rng.Intn(len(b.resps))],
			Factor:   b.factors[b.rng.Intn(len(b.factors))].Name,
			Points:   b.r.SweepMin + b.rng.Intn(b.r.SweepMax-b.r.SweepMin+1)}
	case kindOptimize:
		v = serve.OptimizeRequest{Model: b.model(),
			Response: b.resps[b.rng.Intn(len(b.resps))],
			Minimize: b.rng.Intn(2) == 0, Seed: b.rng.Int63()}
	default:
		panic(fmt.Sprintf("fresh: kind %v has no read body", k))
	}
	return &request{kind: k, path: path, body: mustJSON(v)}
}

// mustJSON encodes a request struct. The API request types hold only
// numbers, strings and slices of them, which always encode.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// read draws one read request from the mix: predict and sweep come from
// the hot set with probability hot_share, otherwise they are unique.
func (b *bodies) read() *request {
	x := b.rng.Float64()
	k := kindOptimize
	switch {
	case x < b.r.Mix["predict"]:
		k = kindPredict
	case x < b.r.Mix["predict"]+b.r.Mix["sweep"]:
		k = kindSweep
	}
	if k != kindOptimize && b.rng.Float64() < b.r.HotShare {
		hot := b.hot[b.nPredict:]
		if k == kindPredict {
			hot = b.hot[:b.nPredict]
		}
		return hot[b.rng.Intn(len(hot))]
	}
	return b.fresh(k)
}

// schedule lays Poisson read arrivals over the phases.
func schedule(rng *rand.Rand, phases []phase, next func() *request) []arrival {
	var out []arrival
	var start time.Duration
	for pi, ph := range phases {
		end := start + ph.dur
		t := start
		for {
			t += time.Duration(rng.ExpFloat64() / ph.rps * float64(time.Second))
			if t >= end {
				break
			}
			out = append(out, arrival{due: t, phase: pi, req: next()})
		}
		start = end
	}
	return out
}

// number orders arrivals by due time and gives each a run-unique
// X-Request-ID, so client and server spans join on it.
func number(arr []arrival, prefix string) {
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].due < arr[j].due })
	for i := range arr {
		arr[i].id = fmt.Sprintf("%s-%d", prefix, i)
	}
}

// runSchedule is the benchmark's open-loop generator. Each client owns one
// keep-alive connection and sends one request at a time; a client takes
// the next arrival in due order, waits until it is due, and sends it. When
// every client is busy, arrivals wait and are sent late: lateness is
// sent − due, and latency runs from due, so a stall is charged to every
// request it delays, not only to the one that hit it. Arrival i's outcome
// goes to out[i]; out is as long as arr.
func runSchedule(start time.Time, base string, clients []*http.Client, arr []arrival, out []outcome, tr *tracer, decodeEvals bool) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arr) {
					return
				}
				a := arr[i]
				if d := time.Until(start.Add(a.due)); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				status, hdr, body, err := call(c, http.MethodPost, base+a.req.path, a.id, a.req.body)
				done := time.Now()
				o := outcome{sent: sent.Sub(start), done: done.Sub(start), status: status, err: err}
				if err == nil {
					o.memo = hdr.Get("X-Memo") == "hit"
					switch {
					case a.req.kind == kindBuild && status == http.StatusAccepted:
						var acc serve.BuildAccepted
						if jerr := json.Unmarshal(body, &acc); jerr != nil {
							o.err = jerr
						}
						o.jobID = acc.Job.ID
					case a.req.kind == kindOptimize && decodeEvals && o.ok():
						var or serve.OptimizeResponse
						if jerr := json.Unmarshal(body, &or); jerr == nil {
							o.evals = or.Evals
						}
					}
				}
				attr := a.req.kind.String()
				if o.memo {
					attr += "/memo"
				}
				tr.record(spanRequest, 0, 0, a.id, attr, sent, done)
				out[i] = o
			}
		}(c)
	}
	wg.Wait()
}

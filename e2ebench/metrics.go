package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"build_fixed_p50_ms", "ms"},
	{"build_adaptive_p50_ms", "ms"},
	{"build_cluster_p50_ms", "ms"},
	{"build_tail_ms", "ms"},
	{"predict_p50_ms", "ms"},
	{"sweep_p50_ms", "ms"},
	{"req_good_ratio", "ratio"},
	{"heap_peak_mb", "MB"},
}

// perLayer are the traced run's metrics; settings.json maps each to the
// end-to-end metric it should move. bench.trace_overhead.<name> follows
// for every end-to-end metric.
var perLayer = []metricDef{
	{"serve.predict.handler_p50_ms", "ms"},
	{"serve.sweep.handler_p50_ms", "ms"},
	{"serve.optimize.handler_p50_ms", "ms"},
	{"serve.transport_p50_ms", "ms"},
	{"serve.build.submit_ms", "ms"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.post_sim_ms.fixed", "ms"},
	{"jobs.post_sim_ms.batch", "ms"},
	{"jobs.post_sim_ms.adaptive", "ms"},
	{"jobs.post_sim_ms.cluster", "ms"},
	{"load.admission.wait_ms", "ms"},
	{"load.admission.shed_ratio", "ratio"},
	{"load.memo.hit_ratio", "ratio"},
	{"load.memo.hits", "count"},
	{"load.memo.misses", "count"},
	{"load.memo.hit_p50_ms", "ms"},
	{"load.memo.miss_p50_ms", "ms"},
	{"load.ladder.max_qps", "req/s"},
	{"core.design_run_ms.fixed", "ms"},
	{"core.design_run_ms.batch", "ms"},
	{"core.design_run_ms.adaptive", "ms"},
	{"core.design_run_ms.cluster", "ms"},
	{"core.parallel_speedup", "x"},
	{"core.retries", "count"},
	{"core.panics_recovered", "count"},
	{"core.batch.lanes", "count"},
	{"core.batch.chunks", "count"},
	{"core.batch.cache_peeled", "count"},
	{"core.batch.rebuild_amortized", "count"},
	{"core.adaptive.rounds", "count"},
	{"core.adaptive.points_simulated", "count"},
	{"simcache.calls", "count"},
	{"simcache.hit_ratio", "ratio"},
	{"simcache.self_p50_ms", "ms"},
	{"simcache.misses", "count"},
	{"sim.engine_calls", "count"},
	{"sim.engine_busy_ms", "ms"},
	{"sim.engine_p50_ms", "ms"},
	{"cluster.lease_rtt_p50_ms", "ms"},
	{"cluster.results_rtt_p50_ms", "ms"},
	{"cluster.leases_per_build", "count"},
	{"cluster.lease_useful_ratio", "ratio"},
	{"cluster.stolen_leases", "count"},
	{"cluster.requeued_points", "count"},
	{"cluster.cache.hits", "count"},
	{"cluster.cache.peer_fetches", "count"},
	{"cluster.cache.peer_timeouts", "count"},
	{"cluster.peer_fetch_p50_ms", "ms"},
	{"opt.evals_per_request", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cycles", "count"},
	{"bench.build_batch_p50_ms", "ms"},
	{"bench.optimize_p50_ms", "ms"},
	{"bench.req_p99_ms", "ms"},
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.fail_ratio", "ratio"},
	{"bench.build_tail_beyond", "count"},
	{"bench.hot_share", "ratio"},
}

const overheadPrefix = "bench.trace_overhead."

// perLayerDefs is perLayer plus one trace-overhead metric per end-to-end
// metric, in the unit of that metric.
func perLayerDefs() []metricDef {
	out := append([]metricDef(nil), perLayer...)
	for _, d := range endToEnd {
		out = append(out, metricDef{overheadPrefix + d.name, d.unit})
	}
	return out
}

// counts are the operations a pass attempted and how many failed: reads
// and build submits that got no 2xx, and jobs that did not end done.
func (p *pass) counts() (attempted, failed int) {
	for i, a := range p.reads {
		if a.req.kind == kindBuild {
			continue // counted with the builds
		}
		attempted++
		if !p.outs[i].ok() {
			failed++
		}
	}
	for _, b := range p.builds {
		attempted++
		if b.err != nil || b.view.State != "done" {
			failed++
		}
	}
	return attempted, failed
}

// refReads returns the reads of the reference rung (phase 0), which in the
// build workloads is the whole read stream.
func (p *pass) refReads() (arr []arrival, outs []outcome) {
	for i, a := range p.reads {
		if a.phase == 0 && a.req.kind != kindBuild {
			arr = append(arr, a)
			outs = append(outs, p.outs[i])
		}
	}
	return arr, outs
}

// refLatencies returns the latencies from due time, in ms, of the
// reference rung's successful reads, by kind and overall.
func (p *pass) refLatencies() (byKind map[kind][]float64, all []float64) {
	arr, outs := p.refReads()
	byKind = map[kind][]float64{}
	for i, o := range outs {
		if o.ok() {
			d := ms(o.done - arr[i].due)
			byKind[arr[i].req.kind] = append(byKind[arr[i].req.kind], d)
			all = append(all, d)
		}
	}
	return byKind, all
}

// measuredBuilds are the builds the build metrics cover: all of them in
// the build workloads, those due in the reference rung on serve-mix.
func (p *pass) measuredBuilds() []buildSample {
	if p.cfg.workload != serveMix {
		return p.builds
	}
	var out []buildSample
	for _, b := range p.builds {
		if phaseAt(p.phases, b.submit.Sub(p.start)) == 0 {
			out = append(out, b)
		}
	}
	return out
}

// buildLatencies returns build latencies in ms, by path and overall.
func (p *pass) buildLatencies() (byPath map[string][]float64, all []float64) {
	byPath = make(map[string][]float64)
	for _, b := range p.measuredBuilds() {
		d, err := b.latency()
		if err != nil {
			continue
		}
		byPath[b.path] = append(byPath[b.path], ms(d))
		all = append(all, ms(d))
	}
	return byPath, all
}

// endToEndValues computes every end-to-end metric of a pass.
func (p *pass) endToEndValues(w io.Writer) map[string]float64 {
	v := make(map[string]float64)
	setups := make([]float64, len(p.setups))
	for i, d := range p.setups {
		setups[i] = d.Seconds()
	}
	v["setup_s"] = median(setups)

	byPath, all := p.buildLatencies()
	for _, bp := range buildPaths {
		xs := byPath[bp.name]
		if bp.name != "batch" { // reported per-layer, see settings.json
			v["build_"+bp.name+"_p50_ms"] = median(xs)
		}
		fmt.Fprintf(w, "build %-8s n=%3d p25 %8.3f p50 %8.3f p75 %8.3f max %8.3f ms\n", bp.name, len(xs),
			percentile(xs, 25), median(xs), percentile(xs, 75), percentile(xs, 100))
	}
	pct := p.cfg.set.BuildTailPct[p.cfg.workload]
	v["build_tail_ms"] = percentile(all, pct)
	n := beyond(pct, len(all))
	fmt.Fprintf(w, "build_tail_ms is p%g of %d builds, %d ranked beyond it; all builds p90 %.3f p95 %.3f p98 %.3f p99 %.3f ms\n",
		pct, len(all), n, percentile(all, 90), percentile(all, 95), percentile(all, 98), percentile(all, 99))
	if n < minBeyond {
		most, _, _ := tailPercentile(all)
		fmt.Fprintf(w, "WARNING: fewer than %d builds rank beyond p%g, so build_tail_ms rests on a few builds; this run supports p%g at most\n",
			minBeyond, pct, most)
	}

	arr, outs := p.refReads()
	lat, _ := p.refLatencies()
	v["predict_p50_ms"] = median(lat[kindPredict])
	v["sweep_p50_ms"] = median(lat[kindSweep])
	fmt.Fprintf(w, "reference-rate samples: predict %d, sweep %d, optimize %d; builds by path: fixed %d, batch %d, adaptive %d, cluster %d\n",
		len(lat[kindPredict]), len(lat[kindSweep]), len(lat[kindOptimize]),
		len(byPath["fixed"]), len(byPath["batch"]), len(byPath["adaptive"]), len(byPath["cluster"]))

	good := 0
	for i, o := range outs {
		if o.ok() && o.done-arr[i].due <= p.cfg.set.Reads.limit() {
			good++
		}
	}
	v["req_good_ratio"] = ratio(float64(good), float64(len(outs)))
	v["heap_peak_mb"] = p.heapMB
	return v
}

// rung is the outcome of one ladder phase.
type rung struct {
	rps                                  float64
	sent, succeeded, shed, failed, good  int
	lateFirst, lateLast, lateP99, p99Lat float64
	p50Lat, lateP50                      float64
	pass                                 bool
}

// ladder summarizes each phase of the read schedule. A rung passes when
// the target share of its reads is good and lateness does not rise from
// its first third to its last (no growing backlog); max_qps is the
// highest rung that passes with every rung below it.
func (p *pass) ladder() (rungs []rung, maxQPS float64) {
	r := p.cfg.set.Reads
	var start time.Duration
	for pi, ph := range p.phases {
		g := rung{rps: ph.rps}
		var lat, late []float64
		var first, last []float64
		for i, a := range p.reads {
			if a.phase != pi || a.req.kind == kindBuild {
				continue
			}
			o := p.outs[i]
			g.sent++
			switch {
			case o.ok():
				g.succeeded++
				if o.done-a.due <= r.limit() {
					g.good++
				}
			case o.status == 429 || o.status == 503:
				g.shed++
			default:
				g.failed++
			}
			l := ms(o.sent - a.due)
			late = append(late, l)
			lat = append(lat, ms(o.done-a.due))
			switch off := a.due - start; {
			case off < ph.dur/3:
				first = append(first, l)
			case off >= 2*ph.dur/3:
				last = append(last, l)
			}
		}
		g.lateFirst, g.lateLast = median(first), median(last)
		g.lateP99, g.p99Lat = percentile(late, 99), percentile(lat, 99)
		g.lateP50, g.p50Lat = median(late), median(lat)
		g.pass = g.sent > 0 && float64(g.good) >= r.TargetShare*float64(g.sent) && g.lateLast-g.lateFirst <= 1
		rungs = append(rungs, g)
		start += ph.dur
	}
	if p.cfg.workload != serveMix {
		return rungs, 0
	}
	for _, g := range rungs {
		if !g.pass {
			break
		}
		maxQPS = g.rps
	}
	return rungs, maxQPS
}

func (p *pass) printLadder(w io.Writer) {
	rungs, maxQPS := p.ladder()
	fmt.Fprintf(w, "%-8s %6s %6s %5s %6s %6s %9s %9s %9s %9s %9s %s\n", "rps", "sent", "ok", "shed", "failed", "good",
		"late_p50", "late_p99", "lat_p50", "lat_p99", "late_rise", "pass")
	for _, g := range rungs {
		fmt.Fprintf(w, "%-8g %6d %6d %5d %6d %6d %9.3f %9.3f %9.3f %9.3f %9.3f %v\n", g.rps, g.sent, g.succeeded, g.shed, g.failed, g.good,
			g.lateP50, g.lateP99, g.p50Lat, g.p99Lat, g.lateLast-g.lateFirst, g.pass)
	}
	if p.cfg.workload == serveMix {
		fmt.Fprintf(w, "req_max_qps %g req/s (limit %g ms at share %g)\n", maxQPS, p.cfg.set.Reads.LimitMs, p.cfg.set.Reads.TargetShare)
	}
}

// perLayerValues computes the traced pass's per-layer metrics from its
// spans, job views, /metrics and fleet-view deltas and runtime counters.
func (p *pass) perLayerValues() map[string]float64 {
	v := make(map[string]float64)
	byName := map[string][]span{}
	for _, s := range p.spans {
		byName[s.Name] = append(byName[s.Name], s)
	}

	// serve: handler time per endpoint, and client time minus handler time.
	handler := map[string]span{}
	hdur := map[string][]float64{}
	for _, s := range byName[spanHandler] {
		hdur[s.Attr] = append(hdur[s.Attr], ms(s.dur()))
		if s.Trace != "" {
			handler[s.Trace] = s
		}
	}
	for _, k := range []string{"predict", "sweep", "optimize"} {
		v["serve."+k+".handler_p50_ms"] = median(hdur[k])
	}
	var transport, memoHit, memoMiss []float64
	for _, s := range byName[spanRequest] {
		k, memo := strings.CutSuffix(s.Attr, "/memo")
		if k == "build" {
			continue
		}
		if h, ok := handler[s.Trace]; ok {
			transport = append(transport, ms(s.dur()-h.dur()))
		}
		if k == "predict" || k == "sweep" {
			if memo {
				memoHit = append(memoHit, ms(s.dur()))
			} else {
				memoMiss = append(memoMiss, ms(s.dur()))
			}
		}
	}
	v["serve.transport_p50_ms"] = median(transport)
	var submit []float64
	for _, s := range byName[spanSubmit] {
		submit = append(submit, ms(s.dur()))
	}
	for i, a := range p.reads {
		if a.req.kind == kindBuild {
			o := p.outs[i]
			submit = append(submit, ms(o.done-o.sent))
		}
	}
	v["serve.build.submit_ms"] = median(submit)

	// jobs and core, from the job views of every build in the region.
	var queue, speedup []float64
	post := map[string][]float64{}
	design := map[string][]float64{}
	var retries, panics float64
	var lanes, chunks, peeled, amort, batchN float64
	var rounds, points, adaptiveN float64
	clusterBuilds := 0
	for _, b := range p.builds {
		jv := b.view
		if b.err != nil || jv.State != "done" {
			continue
		}
		enq, err1 := time.Parse(time.RFC3339Nano, jv.EnqueuedAt)
		st, err2 := time.Parse(time.RFC3339Nano, jv.StartedAt)
		fin, err3 := time.Parse(time.RFC3339Nano, jv.FinishedAt)
		if err1 != nil || err2 != nil || err3 != nil {
			continue
		}
		queue = append(queue, ms(st.Sub(enq)))
		post[b.path] = append(post[b.path], ms(fin.Sub(st))-jv.SimMillis)
		design[b.path] = append(design[b.path], jv.SimMillis)
		if b.path == "fixed" {
			speedup = append(speedup, jv.Speedup)
		}
		if b.path == "cluster" {
			clusterBuilds++
		}
		retries += float64(jv.Retries)
		panics += float64(jv.PanicsRecovered)
		if jv.Batch != nil && b.path == "batch" {
			batchN++
			lanes += float64(jv.Batch.Lanes)
			chunks += float64(jv.Batch.Chunks)
			peeled += float64(jv.Batch.Peeled)
			amort += float64(jv.Batch.AmortizedRebuilds)
		}
		if jv.Adaptive != nil {
			adaptiveN++
			rounds += float64(len(jv.Adaptive.Rounds))
			points += float64(jv.Adaptive.PointsSimulated)
		}
		p.cfg.tr.keep(spanQueueWait, 0, 0, b.id, b.path, enq, st)
		p.cfg.tr.keep(spanJobRun, 0, 0, b.id, b.path, st, fin)
		p.cfg.tr.keep(spanBuild, 0, 0, b.id, b.path, b.submit, fin)
	}
	v["jobs.queue_wait_ms"] = median(queue)
	for _, bp := range buildPaths {
		v["jobs.post_sim_ms."+bp.name] = median(post[bp.name])
		v["core.design_run_ms."+bp.name] = median(design[bp.name])
	}
	v["core.parallel_speedup"] = median(speedup)
	v["core.retries"] = retries
	v["core.panics_recovered"] = panics
	v["core.batch.lanes"] = ratio(lanes, batchN)
	v["core.batch.chunks"] = ratio(chunks, batchN)
	v["core.batch.cache_peeled"] = ratio(peeled, batchN)
	v["core.batch.rebuild_amortized"] = ratio(amort, batchN)
	v["core.adaptive.rounds"] = ratio(rounds, adaptiveN)
	v["core.adaptive.points_simulated"] = ratio(points, adaptiveN)

	// load: admission and memo counters from /metrics deltas.
	eps := []string{`endpoint="predict"`, `endpoint="sweep"`, `endpoint="optimize"`}
	admitted := series(p.scrape, "ehdoed_admission_admitted_total", eps...)
	shed := series(p.scrape, "ehdoed_admission_shed_total", eps...)
	waitSum := series(p.scrape, "ehdoed_admission_queued_wait_seconds_sum", eps...)
	waitN := series(p.scrape, "ehdoed_admission_queued_wait_seconds_count", eps...)
	v["load.admission.wait_ms"] = 1e3 * ratio(waitSum, waitN)
	v["load.admission.shed_ratio"] = ratio(shed, admitted+shed)
	hits := series(p.scrape, "ehdoed_memo_hits_total")
	misses := series(p.scrape, "ehdoed_memo_misses_total")
	v["load.memo.hits"] = hits
	v["load.memo.misses"] = misses
	v["load.memo.hit_ratio"] = ratio(hits, hits+misses)
	v["load.memo.hit_p50_ms"] = median(memoHit)
	v["load.memo.miss_p50_ms"] = median(memoMiss)
	_, v["load.ladder.max_qps"] = p.ladder()

	// simcache and sim: Runner.Run spans and their engine children.
	engine := map[uint64]time.Duration{}
	var eng []float64
	busy := 0.0
	for _, s := range byName[spanEngine] {
		engine[s.Parent] += s.dur()
		eng = append(eng, ms(s.dur()))
		busy += ms(s.dur())
	}
	var self []float64
	hitRuns := 0
	for _, s := range byName[spanCacheRun] {
		e, ran := engine[s.ID]
		if !ran {
			hitRuns++
		}
		self = append(self, ms(s.dur()-e))
	}
	calls := len(byName[spanCacheRun])
	v["simcache.calls"] = float64(calls)
	v["simcache.hit_ratio"] = ratio(float64(hitRuns), float64(calls))
	v["simcache.self_p50_ms"] = median(self)
	v["simcache.misses"] = float64(p.misses)
	v["sim.engine_calls"] = float64(len(eng))
	v["sim.engine_busy_ms"] = busy
	v["sim.engine_p50_ms"] = median(eng)

	// cluster: worker RPC spans plus fleet-view and /metrics deltas.
	rpc := map[string][]float64{}
	for _, s := range byName[spanRPC] {
		rpc[s.Attr] = append(rpc[s.Attr], ms(s.dur()))
	}
	leases := float64(len(rpc["/v1/cluster/lease"]))
	useful := float64(len(rpc["/v1/cluster/results"]))
	v["cluster.lease_rtt_p50_ms"] = median(rpc["/v1/cluster/lease"])
	v["cluster.results_rtt_p50_ms"] = median(rpc["/v1/cluster/results"])
	v["cluster.leases_per_build"] = ratio(useful, float64(clusterBuilds))
	v["cluster.lease_useful_ratio"] = ratio(useful, leases)
	v["cluster.stolen_leases"] = float64(p.stolen)
	v["cluster.requeued_points"] = series(p.scrape, "ehdoed_cluster_points_requeued_total")
	v["cluster.cache.hits"] = float64(p.fleet.Hits)
	v["cluster.cache.peer_fetches"] = float64(p.fleet.PeerFetches)
	v["cluster.cache.peer_timeouts"] = float64(p.fleet.PeerTimeouts)
	v["cluster.peer_fetch_p50_ms"] = median(rpc["/v1/peer/cache/get"])

	var evals []float64
	for i, a := range p.reads {
		if a.req.kind == kindOptimize && p.outs[i].ok() {
			evals = append(evals, float64(p.outs[i].evals))
		}
	}
	v["opt.evals_per_request"] = mean(evals)

	attempted, failed := p.counts()
	v["runtime.allocs_per_op"] = ratio(float64(p.mallocs), float64(attempted))
	v["runtime.gc_cycles"] = float64(p.gcs)
	var late []float64
	for i, a := range p.reads {
		if a.req.kind != kindBuild {
			late = append(late, ms(p.outs[i].sent-a.due))
		}
	}
	v["bench.gen_late_p99_ms"] = percentile(late, 99)
	byPath, _ := p.buildLatencies()
	v["bench.build_batch_p50_ms"] = median(byPath["batch"])
	byKind, allRef := p.refLatencies()
	v["bench.optimize_p50_ms"] = median(byKind[kindOptimize])
	v["bench.req_p99_ms"] = percentile(allRef, 99)
	v["bench.fail_ratio"] = ratio(float64(failed), float64(attempted))
	_, all := p.buildLatencies()
	v["bench.build_tail_beyond"] = float64(beyond(p.cfg.set.BuildTailPct[p.cfg.workload], len(all)))
	hot, reqs := 0, 0
	for _, a := range p.reads {
		if a.req.kind == kindPredict || a.req.kind == kindSweep {
			reqs++
			if a.req.hot {
				hot++
			}
		}
	}
	v["bench.hot_share"] = ratio(float64(hot), float64(reqs))
	return v
}

// printMetrics writes every metric, by name with its unit, in name order.
func printMetrics(w io.Writer, defs []metricDef, vals map[string]float64) {
	sorted := append([]metricDef(nil), defs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	for _, d := range sorted {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
}

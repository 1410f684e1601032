// Command ehdoe is the DoE-based design-flow toolkit of the paper: build
// response surfaces from a designed set of simulations, then explore,
// validate and optimize the captured design space instantly.
//
// Subcommands:
//
//	ehdoe build    [-strategy fixed|adaptive] -design ccf|cci|bbd|lhs|dopt [-runs N] [-horizon 60] [-amp 0.6] -out surfaces.json
//	ehdoe info     -model surfaces.json
//	ehdoe predict  -model surfaces.json -at "period=5,supercap=0.05,vth=3.0,freq_off=0"
//	ehdoe sweep    -model surfaces.json -response packets -factor period [-points 21]
//	ehdoe optimize -model surfaces.json -response stored_energy_J [-min] [-confirm]
//	ehdoe validate -model surfaces.json [-n 10] [-seed 1]
//	ehdoe anova    -model surfaces.json -response stored_energy_J
//
// The build step is the only one that runs simulations; everything after
// it operates on the saved surfaces.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/simcache"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = cmdBuild(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "predict":
		err = cmdPredict(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "optimize":
		_, err = cmdOptimize(os.Args[2:])
	case "validate":
		_, err = cmdValidate(os.Args[2:])
	case "anova":
		err = cmdANOVA(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "ehdoe: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ehdoe: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: ehdoe <build|info|predict|sweep|optimize|validate|anova> [flags]
run "ehdoe <subcommand> -h" for the flags of each subcommand`)
}

// problem rebuilds the standard 4-factor problem the saved surfaces were
// (and will be) fitted against.
func problem(amp, horizon float64) *core.Problem {
	return core.StandardProblem(amp, horizon)
}

// cacheFlags registers the simulation-cache flags on fs and returns a
// function that wires the configured cache into a problem. A disk tier
// (-cache-dir) makes repeated builds/validations across invocations reuse
// each other's simulations.
func cacheFlags(fs *flag.FlagSet) func(*core.Problem) *simcache.Cache {
	dir := fs.String("cache-dir", "", "directory for the persistent simulation-cache tier (empty = memory only)")
	size := fs.Int("cache-size", 256, "in-memory simulation-cache capacity (entries)")
	return func(p *core.Problem) *simcache.Cache {
		c := simcache.New(simcache.Options{Capacity: *size, Dir: *dir})
		p.Runner = c
		return c
	}
}

// resilienceFlags registers the retry/deadline and fault-injection flags
// on fs and returns a function that applies them to a problem. Apply it
// after the cache wiring: the injector wraps whatever runner the problem
// has, so injected faults hit before the cache (replicated points still
// draw from the schedule).
func resilienceFlags(fs *flag.FlagSet) func(*core.Problem) error {
	retries := fs.Int("run-retries", 2, "max retries per design run after transient simulation faults")
	retryBase := fs.Duration("retry-base", 50*time.Millisecond, "initial retry backoff (doubles per attempt, jittered)")
	runTimeout := fs.Duration("run-timeout", 0, "per-simulation-run deadline (0 = unbounded)")
	faultCfg := fault.FlagConfig(fs)
	return func(p *core.Problem) error {
		cfg := faultCfg()
		if err := cfg.Validate(); err != nil {
			return err
		}
		p.Retry = core.RetryPolicy{MaxAttempts: *retries + 1, BaseDelay: *retryBase}
		p.RunTimeout = *runTimeout
		if cfg.Enabled() {
			p.Runner = fault.New(cfg).Wrap(p.Runner)
		}
		return nil
	}
}

// obsFlags registers the observability flags on fs and returns a function
// that builds the command's root context: a run-ID-annotated structured
// logger (simulation, design-run and cache lines all carry the same run
// ID) plus an optional pprof server for profiling long builds.
func obsFlags(fs *flag.FlagSet) func() (context.Context, error) {
	level := fs.String("log-level", "warn", "log level: debug, info, warn or error")
	format := fs.String("log-format", "text", "log format: text or json")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while the command runs")
	return func() (context.Context, error) {
		logger, err := obs.NewLogger(os.Stderr, *format, *level)
		if err != nil {
			return nil, err
		}
		ctx, _ := obs.Annotate(context.Background(), logger, "run-", "")
		if *pprofAddr != "" {
			go func() {
				hs := &http.Server{Addr: *pprofAddr, Handler: obs.PprofHandler()}
				if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
					obs.FromContext(ctx).Warn("pprof server failed", "addr", *pprofAddr, "err", err.Error())
				}
			}()
		}
		return ctx, nil
	}
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	strategy := fs.String("strategy", core.StrategyFixed,
		`build strategy: "fixed" simulates the whole -design up front, "adaptive" grows a D-optimal design and stops when the surfaces converge`)
	designName := fs.String("design", "ccf", "experiment design: ccf, cci, bbd, lhs or dopt (fixed strategy only)")
	runs := fs.Int("runs", 0, "run budget for lhs/dopt (default: CCF-equivalent; fixed strategy only)")
	horizon := fs.Float64("horizon", 60, "simulated duration per run (s)")
	amp := fs.Float64("amp", 0.6, "excitation amplitude (m/s²)")
	seed := fs.Int64("seed", 1, "seed for randomized designs")
	workers := fs.Int("workers", 0, "parallel simulation workers (0 = all cores, 1 = serial)")
	out := fs.String("out", "surfaces.json", "output file")
	withCache := cacheFlags(fs)
	withResilience := resilienceFlags(fs)
	withObs := obsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, err := withObs()
	if err != nil {
		return err
	}
	p := problem(*amp, *horizon)
	cache := withCache(p)
	if err := withResilience(p); err != nil {
		return err
	}
	k := len(p.Factors)
	spec := core.BuildSpec{Problem: p, Workers: *workers}
	switch *strategy {
	case core.StrategyFixed:
		if spec.Design, err = core.NamedDesign(*designName, k, *runs, *seed); err != nil {
			return err
		}
		fmt.Printf("running %d simulations (%s, horizon %.0f s)...\n", spec.Design.N(), spec.Design.Name, *horizon)
	case core.StrategyAdaptive:
		// The sequential loop picks its own points, so a design name or run
		// budget here would be silently ignored — reject explicit ones.
		var conflict []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "design" || f.Name == "runs" {
				conflict = append(conflict, "-"+f.Name)
			}
		})
		if len(conflict) > 0 {
			return fmt.Errorf("build: %s cannot be combined with -strategy adaptive (the loop sizes the design itself)",
				strings.Join(conflict, ", "))
		}
		fmt.Printf("adaptive build (k=%d, fixed reference %d runs, horizon %.0f s)...\n",
			k, core.FixedEquivalentPoints(k), *horizon)
		spec.Adaptive = &core.AdaptiveConfig{Seed: *seed}
	default:
		return fmt.Errorf("build: unknown strategy %q (want %q or %q)",
			*strategy, core.StrategyFixed, core.StrategyAdaptive)
	}
	res, err := core.Build(ctx, spec)
	if err != nil {
		return err
	}
	ds, s, adaptive := res.Dataset, res.Surfaces, res.Adaptive
	saved := s.SaveWithData(ds)
	data, err := saved.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	t := report.NewTable("fitted surfaces", "response", "R2", "RMSE")
	for _, id := range saved.Responses() {
		t.AddRow(string(id), saved.R2[id], saved.RMSE[id])
	}
	t.AddNote("simulation %.0f ms wall (%.0f ms of sim work, %.1f× parallel speedup), fitting %.1f ms; saved to %s",
		float64(ds.SimTime.Milliseconds()), float64(ds.SimWork.Milliseconds()), ds.Speedup(),
		float64(s.FitTime.Microseconds())/1e3, *out)
	if st := cache.Stats(); st.Hits+st.DiskHits+st.DedupHits > 0 {
		t.AddNote("simulation cache: %d hits, %d disk hits, %d deduped, %d misses",
			st.Hits, st.DiskHits, st.DedupHits, st.Misses)
	}
	fmt.Println(t.String())
	if adaptive != nil {
		rt := report.NewTable("adaptive rounds", "round", "added", "points", "min R2", "min adjR2", "min R2pred")
		for _, r := range adaptive.Rounds {
			rt.AddRow(r.Round, r.Added, r.Points, r.MinR2, r.MinAdjR2, r.MinR2Pred)
		}
		rt.AddNote("stopped: %s after %d points (fixed-strategy reference costs %d — %d simulations skipped)",
			adaptive.StopReason, adaptive.PointsSimulated, adaptive.FixedPoints, adaptive.PointsSkipped)
		fmt.Println(rt.String())
	}
	return nil
}

func loadModel(path string) (*core.SavedSurfaces, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return core.DecodeSurfaces(data)
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	model := fs.String("model", "surfaces.json", "saved surfaces file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ss, err := loadModel(*model)
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("surfaces: %s (%d runs, horizon %.0f s)", ss.DesignName, ss.Runs, ss.Horizon),
		"factor", "min", "max", "unit")
	for _, f := range ss.Factors {
		t.AddRow(f.Name, f.Min, f.Max, f.Unit)
	}
	fmt.Println(t.String())
	rt := report.NewTable("responses", "response", "R2", "RMSE")
	for _, id := range ss.Responses() {
		rt.AddRow(string(id), ss.R2[id], ss.RMSE[id])
	}
	fmt.Println(rt.String())
	return nil
}

// parsePoint parses "name=value,name=value" against the saved factors into
// natural units.
func parsePoint(ss *core.SavedSurfaces, spec string) ([]float64, error) {
	nat := make([]float64, len(ss.Factors))
	seen := make([]bool, len(ss.Factors))
	for i, f := range ss.Factors {
		nat[i] = (f.Min + f.Max) / 2 // default: centre
	}
	if spec == "" {
		return nat, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad assignment %q (want name=value)", kv)
		}
		v, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("bad value in %q: %w", kv, err)
		}
		i := ss.FactorIndex(parts[0])
		if i < 0 {
			return nil, fmt.Errorf("unknown factor %q", parts[0])
		}
		if seen[i] {
			return nil, fmt.Errorf("factor %q given twice", parts[0])
		}
		nat[i] = v
		seen[i] = true
	}
	return nat, nil
}

func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	model := fs.String("model", "surfaces.json", "saved surfaces file")
	at := fs.String("at", "", "design point in natural units, e.g. period=5,supercap=0.05")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ss, err := loadModel(*model)
	if err != nil {
		return err
	}
	nat, err := parsePoint(ss, *at)
	if err != nil {
		return err
	}
	t := report.NewTable("prediction", "response", "value")
	for _, id := range ss.Responses() {
		v, err := ss.PredictNatural(id, nat)
		if err != nil {
			return err
		}
		t.AddRow(string(id), v)
	}
	var desc []string
	for i, f := range ss.Factors {
		desc = append(desc, fmt.Sprintf("%s=%.4g%s", f.Name, nat[i], f.Unit))
	}
	t.AddNote("at %s", strings.Join(desc, ", "))
	fmt.Println(t.String())
	return nil
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	model := fs.String("model", "surfaces.json", "saved surfaces file")
	response := fs.String("response", string(core.RespPackets), "response to sweep")
	factor := fs.String("factor", "", "factor to sweep over its full range")
	points := fs.Int("points", 21, "sweep resolution")
	at := fs.String("at", "", "fixed values for the other factors")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ss, err := loadModel(*model)
	if err != nil {
		return err
	}
	fi := ss.FactorIndex(*factor)
	if fi < 0 {
		return fmt.Errorf("unknown factor %q", *factor)
	}
	if *points < 2 {
		return fmt.Errorf("need ≥2 points")
	}
	nat, err := parsePoint(ss, *at)
	if err != nil {
		return err
	}
	id := core.ResponseID(*response)
	f := ss.Factors[fi]
	xs, ys, err := ss.Sweep(id, fi, nat, *points)
	if err != nil {
		return err
	}
	fig := report.NewFigure(fmt.Sprintf("sweep of %s over %s", *response, f.Name), f.Name+"_"+f.Unit, *response)
	if err := fig.Add(string(id), xs, ys); err != nil {
		return err
	}
	fmt.Println(fig.String())
	return nil
}

// cmdOptimize prints the surface optimum of one response, found by the
// same search as POST /v1/optimize with its default 6 starts, and returns
// it.
func cmdOptimize(args []string) (*core.SurfaceOptimum, error) {
	fs := flag.NewFlagSet("optimize", flag.ExitOnError)
	model := fs.String("model", "surfaces.json", "saved surfaces file")
	response := fs.String("response", string(core.RespPackets), "response to optimize")
	minimize := fs.Bool("min", false, "minimize instead of maximize")
	confirm := fs.Bool("confirm", false, "confirm the optimum with one fresh simulation")
	amp := fs.Float64("amp", 0.6, "excitation amplitude for the confirming run")
	seed := fs.Int64("seed", 1, "multi-start seed")
	withCache := cacheFlags(fs)
	withResilience := resilienceFlags(fs)
	withObs := obsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	ctx, err := withObs()
	if err != nil {
		return nil, err
	}
	ss, err := loadModel(*model)
	if err != nil {
		return nil, err
	}
	id := core.ResponseID(*response)
	if _, ok := ss.Coef[id]; !ok {
		return nil, fmt.Errorf("model has no response %q", id)
	}
	best, err := ss.Optimize(id, !*minimize, 6, *seed)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("optimum", "factor", "natural", "coded")
	for i, f := range ss.Factors {
		t.AddRow(f.Name, best.Natural[i], best.Coded[i])
	}
	t.AddNote("predicted %s = %.5g (%d surface evaluations)", id, best.Predicted, best.Evals)
	if *confirm {
		p := problem(*amp, ss.Horizon)
		withCache(p)
		if err := withResilience(p); err != nil {
			return nil, err
		}
		resp, err := p.ResponsesAt(ctx, best.Coded)
		if err != nil {
			return nil, err
		}
		t.AddNote("confirmed by simulation: %s = %.5g", id, resp[id])
	}
	fmt.Println(t.String())
	return best, nil
}

// cmdValidate prints how well the saved surfaces predict fresh
// simulations of the problem they were built on, scoring the responses
// both produce, and returns the report.
func cmdValidate(args []string) (*core.ValidationReport, error) {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	model := fs.String("model", "surfaces.json", "saved surfaces file")
	n := fs.Int("n", 10, "number of fresh validation simulations")
	amp := fs.Float64("amp", 0.6, "excitation amplitude")
	seed := fs.Int64("seed", 1, "validation-point seed")
	withCache := cacheFlags(fs)
	withResilience := resilienceFlags(fs)
	withObs := obsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	ctx, err := withObs()
	if err != nil {
		return nil, err
	}
	ss, err := loadModel(*model)
	if err != nil {
		return nil, err
	}
	p := problem(*amp, ss.Horizon)
	withCache(p)
	if err := withResilience(p); err != nil {
		return nil, err
	}
	rep, err := ss.Validate(ctx, p, *n, *seed)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(fmt.Sprintf("validation at %d fresh points", *n),
		"response", "mean_abs_err", "max_abs_err")
	for _, row := range rep.Rows {
		t.AddRow(string(row.Response), row.MeanAbsErr, row.MaxAbsErr)
	}
	fmt.Println(t.String())
	return rep, nil
}

func cmdANOVA(args []string) error {
	fs := flag.NewFlagSet("anova", flag.ExitOnError)
	model := fs.String("model", "surfaces.json", "saved surfaces file (built with embedded data)")
	response := fs.String("response", string(core.RespStoredEnergy), "response to analyze")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ss, err := loadModel(*model)
	if err != nil {
		return err
	}
	fit, err := ss.Refit(core.ResponseID(*response))
	if err != nil {
		return err
	}
	names := make([]string, len(ss.Factors))
	for i, f := range ss.Factors {
		names[i] = f.Name
	}
	t := report.NewTable(fmt.Sprintf("ANOVA of %s", *response), "source", "dof", "SS", "F", "p")
	for _, row := range fit.ANOVA() {
		if row.Source == "regression" {
			t.AddRow(row.Source, row.DoF, row.SS, row.F, row.P)
		} else {
			t.AddRow(row.Source, row.DoF, row.SS, "", "")
		}
	}
	ts := fit.TStats()
	ps := fit.PValues()
	for i, term := range fit.Model.Terms {
		if term.Degree() == 0 {
			continue
		}
		f := ts[i] * ts[i]
		t.AddRow("  "+term.Label(names), 1, f*fit.Sigma2, f, ps[i])
	}
	t.AddNote("R² %.4f, adjusted %.4f, R²-pred %.4f (PRESS %.4g)", fit.R2, fit.AdjR2, fit.R2Pred, fit.PRESS)
	if lof, err := fit.LackOfFitTest(ss.DesignRuns, ss.DataY[core.ResponseID(*response)]); err == nil {
		t.AddNote("lack of fit: F = %.4g, p = %.4g (%d replicate groups)", lof.F, lof.P, lof.Replicates)
	} else {
		t.AddNote("lack of fit unavailable: %v", err)
	}
	if out := fit.OutlierRuns(3); len(out) > 0 {
		t.AddNote("outlying runs (|studentized residual| > 3): %v — consider re-simulating", out)
	}
	fmt.Println(t.String())
	return nil
}

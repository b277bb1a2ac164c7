package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"time"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/core"
	"thermplace/internal/floorplan"
	"thermplace/internal/flow"
	"thermplace/internal/logicsim"
	"thermplace/internal/power"
	"thermplace/internal/thermal"
	"thermplace/internal/timing"
)

// Sizes: full is the benchmark; tiny runs every code path of a workload in
// a second or two, for the benchmark's own tests.
const (
	sizeFull = "full"
	sizeTiny = "tiny"
)

// A timed run builds its workload from scratch setupsBefore times before
// the window, the last of them being the one timed, and setupsAfter times
// after it. setup_s is the median of all of them: the host's speed flips
// every few seconds, so set-ups spread over the run sample it more than once.
const setupsBefore, setupsAfter = 4, 4

// timeSetups runs setup n times, closing each instance but the last, which
// it returns, and appends each duration in seconds to *setups.
func timeSetups[T interface{ close() }](n int, setup func() (T, error), setups *[]float64) (T, error) {
	var inst T
	for i := 0; i < n; i++ {
		if i > 0 {
			inst.close()
		}
		settleHeap()
		t0 := time.Now()
		var err error
		if inst, err = setup(); err != nil {
			return inst, fmt.Errorf("setup: %w", err)
		}
		*setups = append(*setups, time.Since(t0).Seconds())
	}
	return inst, nil
}

// workload is one benchmark workload. Everything but the seed is fixed
// here: the design, the thermal grid, the parallelism. The seed selects the
// logic-simulation stimulus (and, for serve-mix, the query stream); see
// stimulusSeed.
type workload struct {
	name        string
	defaultSeed int64
	heldOutSeed int64 // a seed for re-checking a claim the change was not written against
	workers     int   // sweep Workers of the timed op (0: no sweep)
	maxInFlight int   // server MaxInFlight (0: no server)
	run         func(rc runConfig) (*result, error)
	golden      func(size string, stim int64) (*output, error)
}

// runConfig is one invocation of the benchmark.
type runConfig struct {
	size    string
	stim    int64
	seed    int64
	seconds float64
	trace   bool
	want    *output // golden output of this size and stimulus seed
}

// result is what a run reports.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	meta              map[string]any
}

// sweepWorkers is the sweeps' Workers, set here rather than taken from the
// host so every run does the same work in the same shape.
const sweepWorkers = 2

var workloads = []*workload{
	{name: "cold-50k", defaultSeed: 1, heldOutSeed: 21, run: runCold, golden: goldenCold},
	{name: "fig6-sweep", defaultSeed: 1, heldOutSeed: 22, workers: sweepWorkers, run: runFig6, golden: goldenFig6},
	{name: "adaptive-sweep", defaultSeed: 1, heldOutSeed: 23, workers: sweepWorkers, run: runAdaptive, golden: goldenAdaptive},
	{name: "serve-mix", defaultSeed: 1, heldOutSeed: 24, maxInFlight: serveMaxInFlight, run: runServeMix, golden: goldenServeMix},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// stimulusSeed maps a benchmark seed onto the stimulus seeds 1..goldenSeeds
// whose outputs are stored in golden.json, so every seed is checked.
func stimulusSeed(seed int64) int64 {
	return 1 + ((seed-1)%goldenSeeds+goldenSeeds)%goldenSeeds
}

// designSpec is a generated design at one thermal grid resolution.
type designSpec struct {
	family bench.Family
	cells  int
	grid   int
}

// The cold workload's 50k-cell design at 160x160 puts the thermal working
// set out of cache; the others share the paper-sized 12k-cell design on the
// paper's 40x40 grid.
func coldDesign(size string) designSpec {
	if size == sizeTiny {
		return designSpec{bench.FamilyWideDatapath, 1500, 16}
	}
	return designSpec{bench.FamilyWideDatapath, 50000, 160}
}

func paperDesign(size string) designSpec {
	if size == sizeTiny {
		return designSpec{bench.FamilyPaperSynth9, 1500, 16}
	}
	return designSpec{bench.FamilyPaperSynth9, 12000, 40}
}

// generate builds the design (always scenario seed 1, so every benchmark
// seed measures the same netlist) and the flow configuration driven by the
// stimulus seed.
func (d designSpec) generate(stim int64) (*bench.Generated, flow.Config, error) {
	g, err := bench.Scenario{Family: d.family, Seed: 1, TargetCells: d.cells}.Generate(celllib.Default65nm())
	if err != nil {
		return nil, flow.Config{}, err
	}
	cfg := flow.ScenarioConfig(g.Scenario)
	cfg.Thermal.NX, cfg.Thermal.NY = d.grid, d.grid
	cfg.Seed = stim
	return g, cfg, nil
}

// batch is a set-up instance of a closed-loop workload.
type batch interface {
	// op runs one timed operation.
	op(ctx context.Context) (*output, error)
	// traceOp runs one op untraced as the reference (sweeps at Workers 1)
	// and replays it through the layers with tr, recording every per-layer
	// value of the op; it returns both outputs.
	traceOp(ctx context.Context, tr *tracer) (ref, rep *output, err error)
	close()
}

// runBatch runs a closed-loop workload. A timed run builds the workload,
// runs ops back to back for the given seconds, checking each against the
// golden output, closes it and times further set-ups. A traced run builds
// it once and runs traced ops for the same time.
func runBatch(rc runConfig, setup func() (batch, error)) (*result, error) {
	ctx := context.Background()
	res := &result{metrics: map[string]float64{}, meta: map[string]any{}}
	repeats := setupsBefore
	if rc.trace {
		repeats = 1
	}
	var setups []float64
	inst, err := timeSetups(repeats, setup, &setups)
	if err != nil {
		return nil, err
	}
	res.meta["setup_s_samples"] = setups

	settleHeap()
	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	if rc.trace {
		defer inst.close()
		var ops []map[string]float64
		for len(ops) < 1 || time.Now().Before(deadline) {
			tr := newTracer(true)
			ref, rep, err := inst.traceOp(ctx, tr)
			res.attempted++
			switch {
			case err != nil:
				res.failed++
				res.meta["error"] = err.Error()
			case !sameReplay(ref, rep):
				res.failed++
				res.meta["error"] = fmt.Sprintf("replay output %+v differs from the op's %+v", rep, ref)
			case rc.want.check(ref) != nil:
				res.failed++
				res.meta["error"] = rc.want.check(ref).Error()
			}
			ops = append(ops, tr.values)
		}
		for _, m := range perLayer {
			var xs []float64
			for _, op := range ops {
				xs = append(xs, op[m.name])
			}
			res.metrics[m.name] = median(xs)
		}
		res.meta["samples"] = len(ops)
		return res, nil
	}

	var lat []float64
	var allocated uint64
	for len(lat) < 1 || time.Now().Before(deadline) {
		a0 := allocatedBytes()
		t0 := time.Now()
		out, err := inst.op(ctx)
		d := time.Since(t0)
		allocated += allocatedBytes() - a0
		lat = append(lat, ms(d))
		res.attempted++
		if err == nil {
			err = rc.want.check(out)
		}
		if err != nil {
			res.failed++
			res.meta["error"] = err.Error()
		}
	}
	res.metrics["heap_live_mb"] = liveHeapMB()
	// The timed instance is closed and no longer referenced, so these
	// set-ups, like those before the window, run with none resident.
	inst.close()
	extra, err := timeSetups(setupsAfter, setup, &setups)
	if err != nil {
		return nil, err
	}
	extra.close()
	res.meta["setup_s_samples"] = setups
	res.metrics["setup_s"] = median(setups)
	res.meta["op_ms_p50"] = median(lat)
	res.metrics["op_ms_p90"] = quantile(lat, 0.9)
	res.metrics["alloc_mb_per_op"] = float64(allocated) / 1e6 / float64(len(lat))
	res.meta["samples"] = len(lat)
	return res, nil
}

// sameReplay reports whether a replay reproduced the op's output exactly
// (== on every float). The triage counts are not replayed.
func sameReplay(ref, rep *output) bool {
	if ref == nil || rep == nil {
		return false
	}
	a, b := *ref, *rep
	a.Triage, b.Triage = nil, nil
	return reflect.DeepEqual(a, b)
}

// timeGC runs f and records the GC cycles and pause time it caused in tr.
func timeGC(tr *tracer, f func()) {
	c0, p0 := gcCounters()
	f()
	c1, p1 := gcCounters()
	tr.count("runtime.gc_cycles", int(c1-c0))
	tr.values["runtime.gc_pause_ms"] += ms(p1 - p0)
}

// ---- cold-50k: a fresh flow's baseline analysis per op. ----

type coldBatch struct {
	g   *bench.Generated
	cfg flow.Config
}

func newColdBatch(size string, stim int64) (*coldBatch, error) {
	g, cfg, err := coldDesign(size).generate(stim)
	if err != nil {
		return nil, err
	}
	return &coldBatch{g: g, cfg: cfg}, nil
}

func (c *coldBatch) op(ctx context.Context) (*output, error) {
	f := flow.New(c.g.Design, c.g.Workload, c.cfg)
	defer f.Close()
	an, err := f.AnalyzeBaselineCtx(ctx)
	if err != nil {
		return nil, err
	}
	return analysisOutput(an), nil
}

func (c *coldBatch) traceOp(ctx context.Context, tr *tracer) (*output, *output, error) {
	var ref *output
	var err error
	t0 := time.Now()
	timeGC(tr, func() { ref, err = c.op(ctx) })
	refMs := ms(time.Since(t0))
	if err != nil {
		return nil, nil, err
	}
	t0 = time.Now()
	rep, err := c.replay(ctx, tr)
	replayMs := ms(time.Since(t0))
	tr.values["unattributed_ms"] = replayMs - tr.spans
	tr.values["trace.overhead_pct"] = 100 * (replayMs - refMs) / refMs
	return ref, rep, err
}

// replay runs the op's calls in order: activity simulation, floorplan,
// global placement, refinement, fillers, power estimate and map, thermal
// solver build and solve, hotspots, timing, congestion.
func (c *coldBatch) replay(ctx context.Context, tr *tracer) (*output, error) {
	f := flow.New(c.g.Design, c.g.Workload, c.cfg)
	defer f.Close()
	var act *logicsim.Activity
	var err error
	tr.span("logicsim.ms", func() { act, err = f.Activity() })
	if err != nil {
		return nil, err
	}
	r := &replayer{design: c.g.Design, cfg: c.cfg}
	p, err := r.place(tr, c.cfg.Utilization, c.cfg.AspectRatio)
	if err != nil {
		return nil, err
	}
	tr.span("power.estimate_ms", func() { r.est = power.NewEstimator(c.g.Design, act, c.cfg.ClockHz) })
	tr.span("timing.ms", func() { r.ta, err = timing.NewAnalyzer(c.g.Design) })
	if err != nil {
		return nil, err
	}
	tcfg := c.cfg.Thermal
	tcfg.Stats = &r.stats
	tr.span("thermal.setup_ms", func() { r.solver, err = thermal.NewSolver(tcfg) })
	if err != nil {
		return nil, err
	}
	an, err := r.analyze(ctx, tr, p, nil, nil)
	tr.span("thermal.setup_ms", r.close)
	if err != nil {
		return nil, err
	}
	out := &output{PeakRise: an.res.PeakRise, Hotspots: len(an.spots), HPWL: an.hpwl,
		CriticalPathPs: an.timing.CriticalPathPs, CriticalPath: pathID(an.timing), Overflows: an.cong.Overflows}
	return out, nil
}

func (c *coldBatch) close() {}

func runCold(rc runConfig) (*result, error) {
	return runBatch(rc, func() (batch, error) {
		c, err := newColdBatch(rc.size, rc.stim)
		if err != nil {
			return nil, err
		}
		if _, err := c.op(context.Background()); err != nil { // warm-up op, discarded
			return nil, err
		}
		return c, nil
	})
}

func goldenCold(size string, stim int64) (*output, error) {
	c, err := newColdBatch(size, stim)
	if err != nil {
		return nil, err
	}
	return c.op(context.Background())
}

// ---- fig6-sweep and adaptive-sweep: sweeps on a warm flow. ----

// fig6Overheads is the paper's Figure 6 overhead range (18 points: Default,
// ERI and HW at each).
var fig6Overheads = core.DefaultSweepOptions().Overheads

// adaptiveOptions is the adaptive workload's sweep: the overhead axis
// {0.16, 0.32} densified 12x and crossed with aspects 1 and 2, triaged at a
// 5% margin (115 candidates).
func adaptiveOptions(workers int) core.SweepOptions {
	return core.SweepOptions{
		Overheads:   []float64{0.16, 0.32},
		Incremental: true,
		Workers:     workers,
		Adaptive:    &core.AdaptiveOptions{GridScale: 12, Margin: 0.05, Aspects: []float64{1, 2}},
	}
}

func fig6Options(workers int) core.SweepOptions {
	return core.SweepOptions{Overheads: fig6Overheads, Incremental: true, Workers: workers}
}

type sweepBatch struct {
	f        *flow.Flow
	opts     func(workers int) core.SweepOptions
	adaptive bool
	r        *replayer // traced runs only
	utilOf   func(point) (float64, error)
}

// newSweepBatch builds the warm flow: design, activity, baseline placement
// and analysis, then one discarded sweep.
func newSweepBatch(size string, stim int64, opts func(int) core.SweepOptions) (*sweepBatch, error) {
	g, cfg, err := paperDesign(size).generate(stim)
	if err != nil {
		return nil, err
	}
	s := &sweepBatch{f: flow.New(g.Design, g.Workload, cfg), opts: opts}
	s.adaptive = opts(sweepWorkers).Adaptive != nil
	if _, err := s.f.AnalyzeBaseline(); err != nil {
		s.close()
		return nil, err
	}
	if _, err := s.op(context.Background()); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *sweepBatch) op(ctx context.Context) (*output, error) {
	return s.sweep(ctx, sweepWorkers)
}

func (s *sweepBatch) sweep(ctx context.Context, workers int) (*output, error) {
	res, err := core.SweepEfficiencyCtx(ctx, s.f, s.opts(workers))
	if err != nil {
		return nil, err
	}
	return sweepOutput(res), nil
}

func (s *sweepBatch) traceOp(ctx context.Context, tr *tracer) (*output, *output, error) {
	if s.r == nil {
		r, err := newSweepReplayer(s.f)
		if err != nil {
			return nil, nil, err
		}
		s.r = r
		if s.adaptive {
			if s.utilOf, err = s.candidateUtils(); err != nil {
				return nil, nil, err
			}
		}
	}
	var ref *output
	var err error
	t0 := time.Now()
	timeGC(tr, func() { ref, err = s.sweep(ctx, 1) })
	refMs := ms(time.Since(t0))
	if err != nil {
		return nil, nil, err
	}
	if !s.adaptive {
		t0 = time.Now()
		rep, err := s.r.replayFig6(ctx, tr, fig6Overheads)
		replayMs := ms(time.Since(t0))
		tr.values["unattributed_ms"] = replayMs - tr.spans
		tr.values["trace.overhead_pct"] = 100 * (replayMs - refMs) / refMs
		return ref, rep, err
	}

	// Adaptive: only the exact phase is replayed. The same replay untraced
	// gives the tracing overhead and, subtracted from the op, the triage.
	t0 = time.Now()
	if _, err := s.r.replayAdaptive(ctx, newTracer(false), ref, s.utilOf); err != nil {
		return nil, nil, err
	}
	plainMs := ms(time.Since(t0))
	t0 = time.Now()
	rep, err := s.r.replayAdaptive(ctx, tr, ref, s.utilOf)
	replayMs := ms(time.Since(t0))
	if err != nil {
		return nil, nil, err
	}
	tr.values["unattributed_ms"] = replayMs - tr.spans
	tr.values["trace.overhead_pct"] = 100 * (replayMs - plainMs) / plainMs
	tr.values["core.triage_ms"] = refMs - plainMs
	ts := ref.Triage
	tr.count("core.triage.candidates", ts.Candidates)
	tr.count("core.triage.survivors", ts.Survivors)
	tr.count("core.triage.coarse_solves", ts.CoarseSolves)
	tr.count("core.triage.exact_solves", ts.ExactSolves)
	tr.values["core.triage.front_pct"] = 100 * float64(len(ref.Front2D)) / float64(ts.ExactSolves)
	return ref, rep, nil
}

// candidateUtils returns a map from an adaptive sweep point to the
// utilization of its Default candidate. Default points carry it; an HW
// point keeps its Default parent's core outline, so its parent is the
// candidate of the same aspect whose floorplan has the same area.
func (s *sweepBatch) candidateUtils() (func(point) (float64, error), error) {
	opts := s.opts(1)
	base := opts.Overheads
	n := len(base) * opts.Adaptive.GridScale
	lo, hi := math.Min(base[0], base[len(base)-1]), math.Max(base[0], base[len(base)-1])
	baseUtil := s.f.Config.Utilization
	baseArea := s.r.base.p.FP.CoreArea()
	type key struct{ aspect, area float64 }
	byArea := map[key]float64{}
	for _, aspect := range opts.Adaptive.Aspects {
		for i := 0; i < n; i++ {
			util := baseUtil / (1 + lo + (hi-lo)*float64(i)/float64(n-1))
			fp, err := floorplan.New(s.f.Design, floorplan.Config{Utilization: util, AspectRatio: aspect})
			if err != nil {
				return nil, err
			}
			byArea[key{aspect, fp.CoreArea()/baseArea - 1}] = util
		}
	}
	return func(pt point) (float64, error) {
		if core.Strategy(pt.Strategy) == core.StrategyDefault {
			return pt.Utilization, nil
		}
		if util, ok := byArea[key{pt.Aspect, pt.AreaOverhead}]; ok {
			return util, nil
		}
		return 0, fmt.Errorf("no Default candidate for the HW point %+v", pt)
	}, nil
}

func (s *sweepBatch) close() {
	s.f.Close()
	if s.r != nil {
		s.r.close()
	}
}

func runSweep(rc runConfig, opts func(int) core.SweepOptions) (*result, error) {
	return runBatch(rc, func() (batch, error) { return newSweepBatch(rc.size, rc.stim, opts) })
}

func runFig6(rc runConfig) (*result, error) { return runSweep(rc, fig6Options) }

func runAdaptive(rc runConfig) (*result, error) { return runSweep(rc, adaptiveOptions) }

func goldenSweep(size string, stim int64, opts func(int) core.SweepOptions) (*output, error) {
	s, err := newSweepBatch(size, stim, opts)
	if err != nil {
		return nil, err
	}
	defer s.close()
	// The golden is the sequential sweep's output; the timed op's parallel
	// one must equal it.
	return s.sweep(context.Background(), 1)
}

func goldenFig6(size string, stim int64) (*output, error) {
	return goldenSweep(size, stim, fig6Options)
}

func goldenAdaptive(size string, stim int64) (*output, error) {
	return goldenSweep(size, stim, adaptiveOptions)
}

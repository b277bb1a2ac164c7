package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/congestion"
	"thermplace/internal/def"
	"thermplace/internal/flow"
	"thermplace/internal/netlist"
	"thermplace/internal/place"
	"thermplace/internal/timing"
)

// TestRunTasksErrorSelection pins the error contract of the sweep's worker
// group: the lowest-index error among the tasks that ran is returned.
func TestRunTasksErrorSelection(t *testing.T) {
	sentinel := errors.New("task 2 failed")
	for _, workers := range []int{1, 3, 16} {
		tasks := make([]func(context.Context) error, 6)
		for i := range tasks {
			i := i
			tasks[i] = func(context.Context) error {
				if i == 2 {
					return sentinel
				}
				return nil
			}
		}
		if err := runTasks(context.Background(), tasks, workers); !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: got %v, want the single failing task's error", workers, err)
		}
	}

	// With several failing tasks, Workers=1 deterministically surfaces the
	// first; concurrent runs may skip later tasks after the first failure
	// but must still return one of the injected errors.
	e1, e3 := errors.New("t1"), errors.New("t3")
	mkTasks := func() []func(context.Context) error {
		tasks := make([]func(context.Context) error, 5)
		for i := range tasks {
			i := i
			tasks[i] = func(context.Context) error {
				switch i {
				case 1:
					return e1
				case 3:
					return e3
				}
				return nil
			}
		}
		return tasks
	}
	if err := runTasks(context.Background(), mkTasks(), 1); !errors.Is(err, e1) {
		t.Fatalf("sequential run must return the first error, got %v", err)
	}
	if err := runTasks(context.Background(), mkTasks(), 4); !errors.Is(err, e1) && !errors.Is(err, e3) {
		t.Fatalf("concurrent run returned an unexpected error: %v", err)
	}
}

// TestRunTasksWorkerClamping checks that worker counts beyond the task
// count (and non-positive counts) still run every task exactly once.
func TestRunTasksWorkerClamping(t *testing.T) {
	for _, workers := range []int{-3, 0, 1, 2, 64} {
		var ran atomic.Int32
		tasks := make([]func(context.Context) error, 3)
		for i := range tasks {
			tasks[i] = func(context.Context) error { ran.Add(1); return nil }
		}
		if err := runTasks(context.Background(), tasks, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := ran.Load(); got != 3 {
			t.Fatalf("workers=%d: ran %d of 3 tasks", workers, got)
		}
	}
}

// comparePoints requires two sweep results to be exactly identical: same
// point identities in order and bit-identical floats.
func comparePoints(t *testing.T, label string, a, b *SweepResult) {
	t.Helper()
	if a.Baseline.PeakRise() != b.Baseline.PeakRise() {
		t.Fatalf("%s: baseline differs: %v vs %v", label, a.Baseline.PeakRise(), b.Baseline.PeakRise())
	}
	if len(a.Points) != len(b.Points) {
		t.Fatalf("%s: point count differs: %d vs %d", label, len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		x, y := a.Points[i], b.Points[i]
		if x.Strategy != y.Strategy || x.Rows != y.Rows ||
			x.PeakRise != y.PeakRise || x.TempReduction != y.TempReduction ||
			x.AreaOverhead != y.AreaOverhead || x.Utilization != y.Utilization {
			t.Fatalf("%s: point %d differs:\n  a %+v\n  b %+v", label, i, x, y)
		}
	}
}

// TestSweepWorkersEdgeCases checks the documented Workers semantics: zero
// picks GOMAXPROCS, negative values behave like zero, and any setting is
// bit-identical to the sequential sweep.
func TestSweepWorkersEdgeCases(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-sweep comparison skipped in -short mode")
	}
	run := func(workers int) *SweepResult {
		f := hotFlow(t, "mult8")
		res, err := SweepEfficiencyCtx(context.Background(), f, SweepOptions{
			Overheads: []float64{0.2},
			Workers:   workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	ref := run(1)
	for _, workers := range []int{0, -2, 7} {
		comparePoints(t, fmt.Sprintf("workers=%d", workers), ref, run(workers))
	}
}

// TestSweepSinglePoint checks the degenerate single-overhead sweep: one
// Default point, one ERI point, at most one HW point, all positive.
func TestSweepSinglePoint(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	f := hotFlow(t, "mult8")
	res, err := SweepEfficiencyCtx(context.Background(), f, SweepOptions{Overheads: []float64{0.25}, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.PointsFor(StrategyDefault)); n != 1 {
		t.Errorf("single-overhead sweep produced %d Default points", n)
	}
	if n := len(res.PointsFor(StrategyERI)); n != 1 {
		t.Errorf("single-overhead sweep produced %d ERI points", n)
	}
	if n := len(res.PointsFor(StrategyHW)); n > 1 {
		t.Errorf("single-overhead sweep produced %d HW points", n)
	}
	for _, pt := range res.Points {
		if pt.AreaOverhead <= 0 {
			t.Errorf("%s point has non-positive area overhead %v", pt.Strategy, pt.AreaOverhead)
		}
	}
}

// TestSweepConcurrentErrorPropagation checks that a failing worker aborts a
// concurrent sweep with an error, not a partial result or a hang.
func TestSweepConcurrentErrorPropagation(t *testing.T) {
	d := netlist.NewDesign("loop", celllib.Default65nm())
	u1, _ := d.AddInstance("u1", "INV_X1", "u")
	u2, _ := d.AddInstance("u2", "INV_X1", "u")
	n1 := d.GetOrCreateNet("n1")
	n2 := d.GetOrCreateNet("n2")
	_ = d.Connect(u1, "A", n2)
	_ = d.Connect(u1, "Z", n1)
	_ = d.Connect(u2, "A", n1)
	_ = d.Connect(u2, "Z", n2)
	for _, workers := range []int{4, -1} {
		f := flow.New(d, bench.UniformWorkload(0.2), flow.FastConfig())
		res, err := SweepEfficiencyCtx(context.Background(), f, SweepOptions{
			Overheads: []float64{0.1, 0.2, 0.3},
			Workers:   workers,
		})
		if err == nil {
			t.Fatalf("workers=%d: sweep on an unsimulatable design returned %+v, want error", workers, res)
		}
	}
}

// TestEvaluateMatchesSweep pins that the evaluator is the sweep's point
// path: one Evaluate call for an HW point at 0.16 overhead, with its
// Default parent measured inside the call, is == to the HW point the
// sweep reports at that overhead.
func TestEvaluateMatchesSweep(t *testing.T) {
	const ov = 0.16
	f := hotFlow(t, "mult8")
	res, err := SweepEfficiencyCtx(context.Background(), f, SweepOptions{Overheads: []float64{ov}})
	if err != nil {
		t.Fatal(err)
	}
	hws := res.PointsFor(StrategyHW)
	if len(hws) != 1 {
		t.Fatalf("sweep reported %d HW points, want 1", len(hws))
	}
	g := hotFlow(t, "mult8")
	ev, err := NewEvaluator(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	pt, an, err := ev.Evaluate(context.Background(), Point{Strategy: StrategyHW, Utilization: g.Config.Utilization / (1 + ov)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if an == nil {
		t.Fatal("evaluator skipped an HW point the sweep measured")
	}
	if *pt != hws[0] {
		t.Fatalf("evaluator point differs from the sweep's:\n  evaluate: %+v\n  sweep:    %+v", *pt, hws[0])
	}
}

// TestCoAnalysisIgnoresConfig pins that every analysis is co-analyzed one
// way: a flow whose config turns CoAnalysis off and sets non-zero Timing and
// Congestion options measures the baseline's timing, congestion and
// wirelength, and every float of every sweep point, == to a FastConfig
// flow.
func TestCoAnalysisIgnoresConfig(t *testing.T) {
	d, err := bench.Generate(celllib.Default65nm(), bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	wl := bench.Workload{Name: "hot-mult8", Activity: map[string]float64{"mult8": 0.6}, Default: 0.03}
	sweep := func(cfg flow.Config) *SweepResult {
		res, err := SweepEfficiencyCtx(context.Background(), flow.New(d, wl, cfg), SweepOptions{Overheads: []float64{0.1, 0.2}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cfg := flow.FastConfig()
	cfg.CoAnalysis = false
	cfg.Timing = timing.Options{ClockPeriodPs: 1}
	cfg.Congestion = congestion.Options{NX: 4, NY: 4}
	ref, got := sweep(flow.FastConfig()), sweep(cfg)

	rb, gb := ref.Baseline, got.Baseline
	if gb.Timing == nil || gb.Congestion == nil {
		t.Fatal("the baseline of a flow configured with CoAnalysis off was not co-analyzed")
	}
	if gb.Timing.CriticalPathPs != rb.Timing.CriticalPathPs || gb.Timing.SlackPs != rb.Timing.SlackPs ||
		gb.Congestion.Overflows != rb.Congestion.Overflows || gb.Congestion.MaxUtilization != rb.Congestion.MaxUtilization ||
		gb.HPWL != rb.HPWL {
		t.Fatalf("baseline co-analysis differs: path %v ps, slack %v ps, %d overflows, max util %v, HPWL %v; FastConfig %v, %v, %d, %v, %v",
			gb.Timing.CriticalPathPs, gb.Timing.SlackPs, gb.Congestion.Overflows, gb.Congestion.MaxUtilization, gb.HPWL,
			rb.Timing.CriticalPathPs, rb.Timing.SlackPs, rb.Congestion.Overflows, rb.Congestion.MaxUtilization, rb.HPWL)
	}
	if len(got.Points) != len(ref.Points) {
		t.Fatalf("%d points, FastConfig %d", len(got.Points), len(ref.Points))
	}
	for i := range ref.Points {
		if got.Points[i] != ref.Points[i] {
			t.Errorf("point %d differs:\n  knobs set:  %+v\n  FastConfig: %+v", i, got.Points[i], ref.Points[i])
		}
	}
}

// TestAreaOverheadBound sends every strategy's point, and a sweep, at an
// area overhead just above MaxAreaOverhead and wants an error that names
// the bound. A large enough overhead used to run the CLIs out of
// memory in ERI's row insertion or the Default reflow's filler insertion.
func TestAreaOverheadBound(t *testing.T) {
	const ov = 3.2
	f := hotFlow(t, "mult8")
	ctx := context.Background()
	ev, err := NewEvaluator(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	util := f.Config.Utilization / (1 + ov)
	rows := RowsForAreaOverhead(ev.Baseline().Placement, ov)
	const want = "above the bound 3"
	for _, pt := range []Point{
		{Strategy: StrategyDefault, Utilization: util},
		{Strategy: StrategyERI, Rows: rows},
		{Strategy: StrategyHW, Utilization: util},
	} {
		if _, _, err := ev.Evaluate(ctx, pt, nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%v: got error %v, want one containing %q", pt, err, want)
		}
	}
	opts := SweepOptions{Overheads: []float64{0.1, ov}}
	if _, err := SweepEfficiencyCtx(ctx, f, opts); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("sweep %+v: got error %v, want one containing %q", opts, err, want)
	}
}

// TestERIDeltaComposesWithDefaultDelta follows the incremental lineage one
// step further than the sweep does: a Default point reflowed from the
// baseline (full delta) with an ERI insertion stacked on top (sparse
// delta). Updating the Default point's power across the ERI delta must
// equal a from-scratch analysis of the final placement bit for bit.
func TestERIDeltaComposesWithDefaultDelta(t *testing.T) {
	f := hotFlow(t, "mult8")
	base, err := f.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	defPl, d1, err := f.ReflowAt(f.Config.Utilization / 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if !d1.IsFull() {
		t.Fatal("a reflowed Default point must carry a full delta")
	}
	defAn, err := f.AnalyzeWithCtx(context.Background(), defPl, flow.AnalyzeOptions{Parent: base, Delta: d1})
	if err != nil {
		t.Fatal(err)
	}
	if len(defAn.Hotspots) == 0 {
		t.Skip("relaxed placement has no hotspots to target")
	}
	eriPl, d2, err := EmptyRowInsertionDelta(defPl, defAn.Hotspots, DefaultERIOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	if d2.Empty() || d2.IsFull() {
		t.Fatalf("ERI delta should be surgical, got full=%v empty=%v", d2.IsFull(), d2.Empty())
	}
	eriAn, err := f.AnalyzeWithCtx(context.Background(), eriPl, flow.AnalyzeOptions{Parent: defAn, Delta: d2})
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := f.AnalyzeWithCtx(context.Background(), eriPl, flow.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := eriAn.Power.Total(), scratch.Power.Total(); got != want {
		t.Fatalf("power updated across the lineage %v != from-scratch power %v", got, want)
	}
}

// TestParetoFrontDegenerateCases pins the front extraction on the shapes an
// adaptive sweep can legitimately produce: duplicate measurements (ties stay
// on the front), a single-point sweep, and a set where one point dominates
// everything else. The cases are built directly on SweepResult, so they hold
// for any producer of Points.
func TestParetoFrontDegenerateCases(t *testing.T) {
	pt := func(area, rise, crit, hpwl float64, over int) EfficiencyPoint {
		return EfficiencyPoint{
			AreaOverhead: area, PeakRise: rise,
			CriticalPathPs: crit, HPWL: hpwl, CongestionOverflows: over,
		}
	}

	t.Run("duplicates", func(t *testing.T) {
		r := &SweepResult{Points: []EfficiencyPoint{
			pt(0.1, 5, 100, 1000, 0),
			pt(0.1, 5, 100, 1000, 0), // identical vector: a tie, not dominated
			pt(0.2, 6, 110, 1100, 1), // strictly worse everywhere
		}}
		if got := r.ParetoFront(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
			t.Fatalf("ParetoFront with duplicates = %v, want [0 1]", got)
		}
		if got := r.Front2D(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
			t.Fatalf("Front2D with duplicates = %v, want [0 1]", got)
		}
	})

	t.Run("single-point", func(t *testing.T) {
		r := &SweepResult{Points: []EfficiencyPoint{pt(0.16, 4, 90, 900, 0)}}
		if got := r.ParetoFront(); len(got) != 1 || got[0] != 0 {
			t.Fatalf("single-point ParetoFront = %v", got)
		}
		if got := r.Front2D(); len(got) != 1 || got[0] != 0 {
			t.Fatalf("single-point Front2D = %v", got)
		}
	})

	t.Run("empty", func(t *testing.T) {
		r := &SweepResult{}
		if got := r.ParetoFront(); len(got) != 0 {
			t.Fatalf("empty ParetoFront = %v", got)
		}
		if got := r.Front2D(); len(got) != 0 {
			t.Fatalf("empty Front2D = %v", got)
		}
	})

	t.Run("all-dominated", func(t *testing.T) {
		r := &SweepResult{Points: []EfficiencyPoint{
			pt(0.3, 9, 130, 1300, 2),
			pt(0.2, 8, 120, 1200, 1),
			pt(0.1, 5, 100, 1000, 0), // dominates everything above
		}}
		if got := r.ParetoFront(); len(got) != 1 || got[0] != 2 {
			t.Fatalf("all-dominated ParetoFront = %v, want [2]", got)
		}
		if got := r.Front2D(); len(got) != 1 || got[0] != 2 {
			t.Fatalf("all-dominated Front2D = %v, want [2]", got)
		}
	})

	// Incomparable points (each better on one axis) all stay on the front.
	t.Run("antichain", func(t *testing.T) {
		r := &SweepResult{Points: []EfficiencyPoint{
			pt(0.1, 9, 100, 1000, 0),
			pt(0.2, 7, 100, 1000, 0),
			pt(0.3, 5, 100, 1000, 0),
		}}
		if got := r.Front2D(); len(got) != 3 {
			t.Fatalf("antichain Front2D = %v, want all three", got)
		}
	})
}

// TestAdaptiveTriageStatsNaNFree pins what a real adaptive run attaches to
// its SweepResult: triage counters that add up, NaN-free points, and well
// defined fronts over them.
func TestAdaptiveTriageStatsNaNFree(t *testing.T) {
	f := hotFlow(t, "mult8")
	r, err := SweepEfficiencyCtx(context.Background(), f, SweepOptions{
		Overheads: []float64{0.05, 0.40},
		Workers:   2,
		Adaptive:  &AdaptiveOptions{GridScale: 2, Margin: 0.04, CoarseFactor: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := r.Triage
	if ts == nil {
		t.Fatal("adaptive run recorded no triage stats")
	}
	if ts.Survivors > ts.Candidates || ts.ExactSolves < len(r.Points) || ts.CoarseSolves == 0 {
		t.Fatalf("triage stats %+v do not add up over %d points", *ts, len(r.Points))
	}
	for _, p := range r.Points {
		for name, v := range map[string]float64{
			"AreaOverhead": p.AreaOverhead, "PeakRise": p.PeakRise,
			"TempReduction": p.TempReduction, "Utilization": p.Utilization,
			"Aspect": p.Aspect,
		} {
			if math.IsNaN(v) {
				t.Fatalf("point %+v has NaN %s", p, name)
			}
		}
	}
	if got := r.ParetoFront(); len(got) == 0 {
		t.Fatal("adaptive result has an empty Pareto front")
	}
	if got := r.Front2D(); len(got) == 0 {
		t.Fatal("adaptive result has an empty 2D front")
	}
}

// TestDenseSweepIsExhaustive holds the dense sweep thermflow and thermserve
// run to the adaptive engine's exhaustive mode: the classic sweep over
// DenseOverheads(Figure 6, 3) measures the candidates of a Margin +Inf
// adaptive run at grid scale 3, in its order, and every float of every
// point is ==. Aspect is the one field apart: the adaptive run records the
// flow's aspect there, the classic sweep zero.
func TestDenseSweepIsExhaustive(t *testing.T) {
	d, err := bench.Generate(celllib.Default65nm(), bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := flow.New(d, bench.SmallScatteredWorkload(), flow.FastConfig())
	fig6 := DefaultSweepOptions().Overheads
	dense, err := SweepEfficiencyCtx(context.Background(), f, SweepOptions{Overheads: DenseOverheads(fig6, 3), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := SweepEfficiencyCtx(context.Background(), f, SweepOptions{
		Overheads: fig6,
		Workers:   2,
		Adaptive:  &AdaptiveOptions{GridScale: 3, Margin: math.Inf(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dense.Points) != len(ex.Points) {
		t.Fatalf("dense sweep has %d points, the exhaustive adaptive run %d", len(dense.Points), len(ex.Points))
	}
	for i, p := range dense.Points {
		q := ex.Points[i]
		q.Aspect = 0
		if p != q {
			t.Fatalf("point %d differs:\n  dense:      %+v\n  exhaustive: %+v", i, p, q)
		}
	}
}

// TestNetlistFillerInstancesStayUnplaced feeds a Verilog-lite netlist with
// FILL instances, one tagged to a unit and one untagged, through the
// baseline analysis, a Fig6 sweep of all three strategies and def.Write. No
// filler instance is ever placed, so external input cannot reach SetLoc's
// panic for one: placement fills whitespace with place.Filler cells of its
// own.
func TestNetlistFillerInstancesStayUnplaced(t *testing.T) {
	lib := celllib.Default65nm()
	gen, err := bench.Generate(lib, bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var v strings.Builder
	if err := netlist.WriteVerilog(&v, gen); err != nil {
		t.Fatal(err)
	}
	src := strings.Replace(v.String(), "endmodule",
		"  (* unit = \"mult8\" *)\n  FILL4 fill_tagged ();\n  FILL2 fill_untagged ();\nendmodule", 1)
	d, err := netlist.ParseVerilog(strings.NewReader(src), lib)
	if err != nil {
		t.Fatal(err)
	}
	var fills []*netlist.Instance
	for _, inst := range d.Instances() {
		if inst.IsFiller() {
			fills = append(fills, inst)
		}
	}
	if len(fills) != 2 || fills[0].Unit != "mult8" || fills[1].Unit != "" {
		t.Fatalf("netlist holds filler instances %v, want one tagged to mult8 and one untagged", fills)
	}
	wl := bench.Workload{Name: "hot-mult8", Activity: map[string]float64{"mult8": 0.6}, Default: 0.03}
	f := flow.New(d, wl, flow.FastConfig())
	base, err := f.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	res, err := SweepEfficiencyCtx(context.Background(), f, SweepOptions{Overheads: []float64{0.16}, KeepAnalyses: true})
	if err != nil {
		t.Fatal(err)
	}
	placements := map[string]*place.Placement{"baseline": base.Placement}
	for _, pt := range res.Points {
		placements[fmt.Sprintf("%s at %.2f", pt.Strategy, pt.AreaOverhead)] = pt.Analysis.Placement
	}
	for _, s := range []Strategy{StrategyDefault, StrategyERI, StrategyHW} {
		if len(res.PointsFor(s)) == 0 {
			t.Fatalf("the sweep measured no %s point", s)
		}
	}
	for what, p := range placements {
		for _, fill := range fills {
			if _, ok := p.Loc(fill); ok {
				t.Fatalf("%s: filler instance %s is placed", what, fill.Name)
			}
		}
		if errs := p.Validate(); len(errs) != 0 {
			t.Fatalf("%s: placement not legal: %v", what, errs[0])
		}
		var out strings.Builder
		if err := def.Write(&out, p); err != nil {
			t.Fatal(err)
		}
		for _, fill := range fills {
			if strings.Contains(out.String(), "- "+fill.Name+" ") {
				t.Fatalf("%s: DEF lists filler instance %s", what, fill.Name)
			}
		}
	}
}

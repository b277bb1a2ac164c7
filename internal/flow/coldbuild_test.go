package flow

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/fault"
	"thermplace/internal/logicsim"
	"thermplace/internal/netlist"
	"thermplace/internal/place"
)

// requireSameAnalysis fails unless every float the analysis reports is ==:
// peak rise, surface field, power map and totals, hotspot set, critical
// path and its nets, congestion and HPWL.
func requireSameAnalysis(t *testing.T, what string, want, got *Analysis) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s", what, fmt.Sprintf(format, args...))
	}
	if got.PeakRise() != want.PeakRise() || got.Thermal.GradientC != want.Thermal.GradientC {
		fail("peak rise %v, gradient %v; want %v, %v", got.PeakRise(), got.Thermal.GradientC, want.PeakRise(), want.Thermal.GradientC)
	}
	if !slices.Equal(got.Thermal.Surface.Values(), want.Thermal.Surface.Values()) {
		fail("surface field differs")
	}
	if !slices.Equal(got.PowerMap.Values(), want.PowerMap.Values()) {
		fail("power map differs")
	}
	if got.Power.TotalBreakdown() != want.Power.TotalBreakdown() {
		fail("power %+v, want %+v", got.Power.TotalBreakdown(), want.Power.TotalBreakdown())
	}
	if len(got.Hotspots) != len(want.Hotspots) {
		fail("%d hotspots, want %d", len(got.Hotspots), len(want.Hotspots))
	}
	for i, h := range got.Hotspots {
		w := want.Hotspots[i]
		if h.ID != w.ID || h.Rect != w.Rect || h.PeakRise != w.PeakRise || h.MeanRise != w.MeanRise ||
			h.AreaUm2 != w.AreaUm2 || !slices.Equal(h.Cells, w.Cells) {
			fail("hotspot %d is %+v, want %+v", i, h, w)
		}
	}
	if g, w := got.Timing, want.Timing; g.CriticalPathPs != w.CriticalPathPs || g.SlackPs != w.SlackPs ||
		g.Endpoints != w.Endpoints || !slices.Equal(g.CriticalPath, w.CriticalPath) {
		fail("critical path %v ps over %d steps, want %v ps over %d", g.CriticalPathPs, len(g.CriticalPath), w.CriticalPathPs, len(w.CriticalPath))
	}
	if g, w := got.Congestion, want.Congestion; g.MaxUtilization != w.MaxUtilization || g.MeanUtilization != w.MeanUtilization ||
		g.Overflows != w.Overflows || g.TotalWirelength != w.TotalWirelength ||
		!slices.Equal(g.Utilization.Values(), w.Utilization.Values()) {
		fail("congestion max %v, %d overflows; want %v, %d", g.MaxUtilization, g.Overflows, w.MaxUtilization, w.Overflows)
	}
	if got.HPWL != want.HPWL || got.Placement.TotalHPWL() != want.Placement.TotalHPWL() {
		fail("HPWL %v, want %v", got.HPWL, want.HPWL)
	}
}

// TestColdBuildOverlapMatchesSequential analyzes a fresh flow's baseline
// with the cold build forked into its two lanes and without the fork, on
// every scenario family and on the paper benchmark: every output must be ==.
func TestColdBuildOverlapMatchesSequential(t *testing.T) {
	lib := celllib.Default65nm()
	type design struct {
		name string
		d    *netlist.Design
		wl   bench.Workload
		cfg  Config
	}
	var designs []design
	for _, fam := range bench.Families() {
		g, err := bench.Scenario{Family: fam, Seed: 1, TargetCells: 1500}.Generate(lib)
		if err != nil {
			t.Fatal(err)
		}
		cfg := ScenarioConfig(g.Scenario)
		cfg.SimCycles = 48
		cfg.Thermal.NX, cfg.Thermal.NY = 20, 20
		designs = append(designs, design{string(fam), g.Design, g.Workload, cfg})
	}
	paper, err := bench.Generate(lib, bench.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	designs = append(designs, design{"paper", paper, bench.ScatteredSmallHotspots(), DefaultConfig()})

	for _, c := range designs {
		seq, err := New(c.d, c.wl, c.cfg).analyzeBaseline(context.Background(), 1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		forked, err := New(c.d, c.wl, c.cfg).analyzeBaseline(context.Background(), 2)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		requireSameAnalysis(t, c.name, seq, forked)
	}
}

// TestColdBuildConcurrentCallers fires every cached entry point at one fresh
// flow at once: each value is built once, so every caller gets the same
// activity, placement and baseline analysis, == to a sequential flow's.
func TestColdBuildConcurrentCallers(t *testing.T) {
	f := smallFlow(t)
	const callers = 12
	type result struct {
		act *logicsim.Activity
		p   *place.Placement
		an  *Analysis
		err error
	}
	results := make([]result, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			r := &results[i]
			switch i % 4 {
			case 0:
				r.act, r.err = f.Activity()
			case 1:
				r.p, r.err = f.Baseline()
			case 2:
				r.an, r.err = f.AnalyzeBaseline()
			case 3:
				r.an, r.err = f.AnalyzeBaselineCtx(context.Background())
			}
		}()
	}
	close(start)
	wg.Wait()

	act, err := f.Activity()
	if err != nil {
		t.Fatal(err)
	}
	p, err := f.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	an, err := f.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		switch {
		case r.err != nil:
			t.Fatalf("caller %d: %v", i, r.err)
		case r.act != nil && r.act != act, r.p != nil && r.p != p, r.an != nil && r.an != an:
			t.Fatalf("caller %d got a second copy of a cached value", i)
		}
	}
	if an.Placement != p {
		t.Fatal("the baseline analysis does not measure the cached baseline placement")
	}
	est1, _ := f.est()
	est2, _ := f.est()
	ta1, _ := f.ta()
	ta2, _ := f.ta()
	if est1 != est2 || ta1 != ta2 || f.pool() != f.pool() {
		t.Fatal("the estimator, timing analyzer or thermal pool was built twice")
	}
	ref, err := New(f.Design, f.Workload, f.Config).analyzeBaseline(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAnalysis(t, "concurrent callers", ref, an)
}

// loopedDesign is two inverters driving each other: it places, but cannot
// be simulated or timed.
func loopedDesign(t *testing.T) *netlist.Design {
	t.Helper()
	d := netlist.NewDesign("looped", celllib.Default65nm())
	u1, err := d.AddInstance("u1", "INV_X1", "u")
	if err != nil {
		t.Fatal(err)
	}
	u2, err := d.AddInstance("u2", "INV_X1", "u")
	if err != nil {
		t.Fatal(err)
	}
	n1, n2 := d.GetOrCreateNet("n1"), d.GetOrCreateNet("n2")
	for _, c := range []struct {
		inst *netlist.Instance
		pin  string
		net  *netlist.Net
	}{{u1, "A", n2}, {u1, "Z", n1}, {u2, "A", n1}, {u2, "Z", n2}} {
		if err := d.Connect(c.inst, c.pin, c.net); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestColdBuildErrors checks that a failing cold analysis reports the same
// error whether or not the build forks, in the same precedence: placement
// before activity, activity before the thermal grid. A canceled context and
// a contained solver panic leave the flow usable.
func TestColdBuildErrors(t *testing.T) {
	small := smallFlow(t)
	badUtil := small.Config
	badUtil.Utilization = 1.5
	badGrid := small.Config
	badGrid.Thermal.NX, badGrid.Thermal.NY = 1, 1
	looped := loopedDesign(t)
	var graphErr *netlist.GraphError
	rows := []struct {
		name  string
		d     *netlist.Design
		cfg   Config
		want  string
		graph bool
	}{
		{"looped design", looped, small.Config, "flow: activity simulation: logicsim: netlist: instance \"u1\" is on a combinational loop", true},
		{"bad utilization", small.Design, badUtil, "floorplan: utilization 1.5 out of range", false},
		{"looped design, bad utilization", looped, badUtil, "floorplan: utilization 1.5 out of range", false},
		{"bad thermal grid", small.Design, badGrid, "thermal: grid must be at least 2x2", false},
	}
	for _, r := range rows {
		wl := small.Workload
		if r.d == looped {
			wl = bench.UniformWorkload(0.2)
		}
		f := New(r.d, wl, r.cfg)
		_, err := f.AnalyzeBaseline()
		if err == nil || !strings.Contains(err.Error(), r.want) || r.graph != errors.As(err, &graphErr) {
			t.Fatalf("%s: got %v, want an error containing %q (GraphError %v)", r.name, err, r.want, r.graph)
		}
		if _, again := f.AnalyzeBaseline(); again == nil || again.Error() != err.Error() {
			t.Fatalf("%s: the second call returned %v, the first %v", r.name, again, err)
		}
		for _, workers := range []int{1, 2} {
			_, werr := New(r.d, wl, r.cfg).analyzeBaseline(context.Background(), workers)
			if werr == nil || werr.Error() != err.Error() {
				t.Fatalf("%s: %d worker(s) report %v, the default %v", r.name, workers, werr, err)
			}
		}
	}

	want, err := New(small.Design, small.Workload, small.Config).AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}

	// A context canceled before the call skips the fork: the call reports
	// the cancellation, counts it, and the next live call analyzes.
	f := New(small.Design, small.Workload, small.Config)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.AnalyzeBaselineCtx(ctx); !errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("pre-canceled context: got %v, want fault.ErrCanceled", err)
	}
	if n := f.FaultStats().Canceled; n != 1 {
		t.Fatalf("FaultStats().Canceled = %d after one canceled analysis, want 1", n)
	}
	an, err := f.AnalyzeBaseline()
	if err != nil {
		t.Fatalf("analysis after a canceled one: %v", err)
	}
	requireSameAnalysis(t, "after cancellation", want, an)

	// A panic in the first solve is contained as an error and not cached:
	// the next call analyzes.
	f = New(small.Design, small.Workload, small.Config)
	f.Config.Thermal.Inject = &fault.Injector{PanicCGSolveN: 1}
	var pe *fault.ErrPanic
	if _, err := f.AnalyzeBaseline(); !errors.As(err, &pe) {
		t.Fatalf("injected solver panic: got %v, want a fault.ErrPanic", err)
	}
	if an, err = f.AnalyzeBaseline(); err != nil {
		t.Fatalf("analysis after a contained panic: %v", err)
	}
	requireSameAnalysis(t, "after a contained panic", want, an)
}

package flow

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/netlist"
	"thermplace/internal/place"
	"thermplace/internal/spice"
	"thermplace/internal/thermal"
)

// smallFlow builds a flow over the small benchmark with a workload that
// heats the 8-bit multiplier.
func smallFlow(t *testing.T) *Flow {
	t.Helper()
	lib := celllib.Default65nm()
	d, err := bench.Generate(lib, bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	wl := bench.Workload{
		Name:     "hot-mult8",
		Activity: map[string]float64{"mult8": 0.6},
		Default:  0.03,
	}
	return New(d, wl, FastConfig())
}

func TestActivityCachedAndWorkloadDriven(t *testing.T) {
	f := smallFlow(t)
	a1, err := f.Activity()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := f.Activity()
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("activity must be cached between calls")
	}
	if a1.MeanActivity() <= 0 {
		t.Fatal("mean activity must be positive")
	}
	// The hot unit's cells must switch more than the cold units' cells.
	sumFor := func(unit string) float64 {
		total := 0.0
		for _, inst := range f.Design.InstancesInUnit(unit) {
			if out := inst.Master.OutputPin(); out != "" {
				if net := inst.Conn(out); net != nil {
					total += a1.For(net.Name)
				}
			}
		}
		return total / float64(len(f.Design.InstancesInUnit(unit)))
	}
	if sumFor("mult8") <= sumFor("add16") {
		t.Fatalf("hot unit mean activity %g should exceed cold unit %g", sumFor("mult8"), sumFor("add16"))
	}
}

// TestActivityRejectsMissingUnits checks that a workload driving a unit
// the design lacks (the paper workloads on the small benchmark) is an
// error, from Activity and from every analysis, rather than a silently
// uniform stimulus.
func TestActivityRejectsMissingUnits(t *testing.T) {
	lib := celllib.Default65nm()
	d, err := bench.Generate(lib, bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := New(d, bench.ScatteredSmallHotspots(), FastConfig())
	_, err = f.Activity()
	if err == nil {
		t.Fatal("a workload naming units the design lacks must be rejected")
	}
	for _, unit := range []string{"mac16", "mult16a", "mult16b", "mult20"} {
		if !strings.Contains(err.Error(), unit) {
			t.Errorf("error %q does not name the missing unit %s", err, unit)
		}
	}
	if _, err := f.AnalyzeBaseline(); err == nil {
		t.Fatal("analysis with a workload naming missing units must fail")
	}
	own := bench.Workload{Name: "hot-mult8", Activity: map[string]float64{"mult8": 0.55}, Default: 0.04}
	if _, err := New(d, own, FastConfig()).Activity(); err != nil {
		t.Fatalf("a workload driving the design's own unit: %v", err)
	}
}

func TestBaselineCachedAndAnalysesConsistent(t *testing.T) {
	f := smallFlow(t)
	p1, err := f.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := f.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("baseline placement must be cached between calls")
	}
	// Repeated analyses must agree: the cached thermal solver's warm start
	// must not drift the answer.
	a1, err := f.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := f.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(a1.PeakRise() - a2.PeakRise()); d > 1e-9 {
		t.Fatalf("repeated analysis changed peak rise by %g C", d)
	}
}

// TestAnalyzeFastPathMatchesSpiceOracle solves the baseline analysis' own
// power map with the SPICE-circuit oracle and compares the surface
// temperature cell by cell.
func TestAnalyzeFastPathMatchesSpiceOracle(t *testing.T) {
	f := smallFlow(t)
	an, err := f.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := thermal.SolveSpice(an.PowerMap, f.Config.Thermal, spice.MethodCG)
	if err != nil {
		t.Fatal(err)
	}
	fast, ref := an.Thermal.Surface.Values(), oracle.Surface.Values()
	if len(fast) != len(ref) {
		t.Fatalf("surface has %d cells, oracle %d", len(fast), len(ref))
	}
	for i := range fast {
		if d := math.Abs(fast[i] - ref[i]); d > 1e-6 {
			t.Fatalf("surface cell %d differs from the spice oracle by %g C", i, d)
		}
	}
	if d := math.Abs(an.PeakRise() - oracle.PeakRise); d > 1e-6 {
		t.Fatalf("fast path peak rise differs from spice oracle by %g C", d)
	}
}

// TestPlaceAtAspect checks the explicit-aspect placement entry point:
// repeated calls at the configured aspect agree, and a different aspect
// reshapes the core without touching the shared Config.
func TestPlaceAtAspect(t *testing.T) {
	f := smallFlow(t)
	p1, err := f.PlaceAtAspect(0.7, f.Config.AspectRatio)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := f.PlaceAtAspect(0.7, f.Config.AspectRatio)
	if err != nil {
		t.Fatal(err)
	}
	if p1.FP.Core != p2.FP.Core {
		t.Fatalf("PlaceAtAspect at the configured aspect diverged: %v vs %v", p1.FP.Core, p2.FP.Core)
	}
	tall, err := f.PlaceAtAspect(0.7, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	w, h := tall.FP.Core.Xhi-tall.FP.Core.Xlo, tall.FP.Core.Yhi-tall.FP.Core.Ylo
	if h <= w {
		t.Fatalf("aspect 2.0 core should be taller than wide, got %gx%g", w, h)
	}
	if f.Config.AspectRatio != 1.0 {
		t.Fatal("PlaceAtAspect mutated the shared Config")
	}
}

func TestPlaceAtAndBaseline(t *testing.T) {
	f := smallFlow(t)
	p, err := f.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if errs := p.Validate(); len(errs) != 0 {
		t.Fatalf("baseline placement illegal: %v", errs[0])
	}
	got := p.Utilization()
	if math.Abs(got-f.Config.Utilization) > 0.1 {
		t.Fatalf("baseline utilization %g too far from target %g", got, f.Config.Utilization)
	}
	relaxed, err := f.PlaceAtAspect(0.6, f.Config.AspectRatio)
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.FP.CoreArea() <= p.FP.CoreArea() {
		t.Fatal("lower utilization must give a larger core")
	}
}

func TestAnalyzeEndToEnd(t *testing.T) {
	f := smallFlow(t)
	an, err := f.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	if an.Power.Total() <= 0 {
		t.Fatal("power must be positive")
	}
	if an.PowerMap.Sum() <= 0 {
		t.Fatal("power map must be positive")
	}
	if math.Abs(an.PowerMap.Sum()-an.Power.Total()) > 1e-9*an.Power.Total() {
		t.Fatal("power map must conserve total power")
	}
	if an.PeakRise() <= 0 {
		t.Fatal("peak rise must be positive")
	}
	if len(an.Hotspots) == 0 {
		t.Fatal("the skewed workload must produce at least one hotspot")
	}
	// The hottest hotspot must overlap the hot unit's region.
	hotRegion := an.Placement.FP.RegionOf("mult8")
	if hotRegion == nil {
		t.Fatal("no region for mult8")
	}
	if !an.Hotspots[0].Rect.Intersects(hotRegion.Rect.Expand(20)) {
		t.Fatalf("hottest hotspot %v does not overlap the hot unit region %v",
			an.Hotspots[0].Rect, hotRegion.Rect)
	}
	// The thermal grid must cover the core.
	if an.Thermal.Surface.Region != an.Placement.FP.Core {
		t.Fatal("thermal map region must equal the core")
	}
}

func TestWorkloadChangesHotspotLocation(t *testing.T) {
	lib := celllib.Default65nm()
	d, err := bench.Generate(lib, bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	run := func(hotUnit string) *Analysis {
		wl := bench.Workload{Name: "hot-" + hotUnit, Activity: map[string]float64{hotUnit: 0.6}, Default: 0.03}
		f := New(d, wl, FastConfig())
		an, err := f.AnalyzeBaseline()
		if err != nil {
			t.Fatal(err)
		}
		return an
	}
	a := run("mult8")
	b := run("alu8")
	if len(a.Hotspots) == 0 || len(b.Hotspots) == 0 {
		t.Fatal("both workloads must produce hotspots")
	}
	// The hotspot must follow the hot unit: this is the knob the paper uses
	// to control hotspot size and position.
	fpA := a.Placement.FP
	if !a.Hotspots[0].Rect.Intersects(fpA.RegionOf("mult8").Rect.Expand(20)) {
		t.Error("mult8 workload hotspot not over mult8")
	}
	fpB := b.Placement.FP
	if !b.Hotspots[0].Rect.Intersects(fpB.RegionOf("alu8").Rect.Expand(20)) {
		t.Error("alu8 workload hotspot not over alu8")
	}
}

func TestAnalyzeRejectsBrokenDesign(t *testing.T) {
	lib := celllib.Default65nm()
	d := netlist.NewDesign("broken", lib)
	// A design with a combinational loop cannot be simulated.
	u1, _ := d.AddInstance("u1", "INV_X1", "u")
	u2, _ := d.AddInstance("u2", "INV_X1", "u")
	n1 := d.GetOrCreateNet("n1")
	n2 := d.GetOrCreateNet("n2")
	_ = d.Connect(u1, "A", n2)
	_ = d.Connect(u1, "Z", n1)
	_ = d.Connect(u2, "A", n1)
	_ = d.Connect(u2, "Z", n2)
	f := New(d, bench.UniformWorkload(0.2), FastConfig())
	if _, err := f.Activity(); err == nil {
		t.Fatal("activity extraction on a looped design must fail")
	}
}

// TestAnalyzeRejectsBadThermalGrid: a thermal grid below 2x2 is the thermal
// config's named error, reported before the power map is binned onto the
// grid (where a zero or negative size used to panic).
func TestAnalyzeRejectsBadThermalGrid(t *testing.T) {
	small := smallFlow(t)
	for _, n := range []int{0, -3, 1} {
		cfg := small.Config
		cfg.Thermal.NX, cfg.Thermal.NY = n, n
		f := New(small.Design, small.Workload, cfg)
		_, err := f.AnalyzeBaseline()
		if err == nil || !strings.Contains(err.Error(), "thermal: grid must be at least 2x2") {
			t.Fatalf("grid %dx%d: got %v, want the thermal config's grid error", n, n, err)
		}
	}
}

func TestConfigs(t *testing.T) {
	def := DefaultConfig()
	if def.Thermal.NX != 40 || def.ClockHz != 1e9 || def.Utilization != 0.85 {
		t.Fatalf("unexpected default config: %+v", def)
	}
	fast := FastConfig()
	if fast.Thermal.NX >= def.Thermal.NX || fast.SimCycles >= def.SimCycles {
		t.Fatal("FastConfig must be cheaper than DefaultConfig")
	}
}

// TestConcurrentAnalyzeMatchesSequential drives AnalyzeWithCtx from many
// goroutines at once (the concurrent sweep's usage pattern: baseline first,
// then independent placements in parallel) and checks every result against
// a sequential reference flow. Because every thermal solve after the first
// is warm-started from the recorded baseline field, the results must be
// bit-identical regardless of scheduling. Run with -race to check the
// solver pool and cache locking.
func TestConcurrentAnalyzeMatchesSequential(t *testing.T) {
	f := smallFlow(t)
	if _, err := f.AnalyzeBaseline(); err != nil {
		t.Fatal(err)
	}
	utils := []float64{0.80, 0.75, 0.70, 0.65, 0.60, 0.55}
	placements := make([]*place.Placement, len(utils))
	for i, u := range utils {
		p, err := f.PlaceAtAspect(u, f.Config.AspectRatio)
		if err != nil {
			t.Fatal(err)
		}
		placements[i] = p
	}

	got := make([]float64, len(placements))
	var wg sync.WaitGroup
	errCh := make(chan error, len(placements))
	for i, p := range placements {
		wg.Add(1)
		go func(i int, p *place.Placement) {
			defer wg.Done()
			an, err := f.AnalyzeWithCtx(context.Background(), p, AnalyzeOptions{})
			if err != nil {
				errCh <- err
				return
			}
			got[i] = an.PeakRise()
		}(i, p)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Sequential reference on a fresh flow with the same seeding pattern
	// (baseline first). The placements are reused: their geometry caches
	// are warm from the concurrent pass, which must not change results.
	ref := New(f.Design, f.Workload, f.Config)
	if _, err := ref.AnalyzeBaseline(); err != nil {
		t.Fatal(err)
	}
	for i, p := range placements {
		an, err := ref.AnalyzeWithCtx(context.Background(), p, AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if an.PeakRise() != got[i] {
			t.Fatalf("placement %d (util %.2f): concurrent peak rise %g != sequential %g",
				i, utils[i], got[i], an.PeakRise())
		}
	}
}

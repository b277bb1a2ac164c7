package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/flow"
	"thermplace/internal/hotspot"
	"thermplace/internal/netlist"
	"thermplace/internal/spice"
	"thermplace/internal/thermal"
)

func TestStrategyParsing(t *testing.T) {
	for _, s := range []string{"default", "eri", "hw"} {
		st, err := ParseStrategy(s)
		if err != nil || !st.Valid() {
			t.Errorf("ParseStrategy(%q) = %v, %v", s, st, err)
		}
	}
	if _, err := ParseStrategy("magic"); err == nil {
		t.Error("unknown strategy must fail to parse")
	}
	if Strategy("nope").Valid() {
		t.Error("invalid strategy must not validate")
	}
}

// hotFlow builds a flow over the small benchmark with one hot unit.
func hotFlow(t *testing.T, hotUnit string) *flow.Flow {
	t.Helper()
	lib := celllib.Default65nm()
	d, err := bench.Generate(lib, bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	wl := bench.Workload{Name: "hot-" + hotUnit, Activity: map[string]float64{hotUnit: 0.6}, Default: 0.03}
	return flow.New(d, wl, flow.FastConfig())
}

func TestEmptyRowInsertionTransform(t *testing.T) {
	f := hotFlow(t, "mult8")
	base, err := f.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Hotspots) == 0 {
		t.Fatal("baseline must have hotspots")
	}
	const rows = 6
	p, _, err := EmptyRowInsertionDelta(base.Placement, base.Hotspots, DefaultERIOptions(rows))
	if err != nil {
		t.Fatal(err)
	}
	// The original placement must be untouched.
	if base.Placement.FP.NumRows() == p.FP.NumRows() {
		t.Fatal("ERI must add rows to the clone")
	}
	if errs := p.Validate(); len(errs) != 0 {
		t.Fatalf("ERI output not legal: %v", errs[0])
	}
	// Core grows by exactly rows * rowHeight in height, width unchanged.
	if p.FP.NumRows() != base.Placement.FP.NumRows()+rows {
		t.Fatalf("row count %d, want %d", p.FP.NumRows(), base.Placement.FP.NumRows()+rows)
	}
	if math.Abs(p.FP.Core.W()-base.Placement.FP.Core.W()) > 1e-9 {
		t.Fatal("ERI must not change the core width")
	}
	wantH := base.Placement.FP.Core.H() + float64(rows)*p.FP.RowHeight
	if math.Abs(p.FP.Core.H()-wantH) > 1e-9 {
		t.Fatalf("core height %g, want %g", p.FP.Core.H(), wantH)
	}
	// Area overhead helpers agree with the real geometry.
	overhead := p.FP.CoreArea()/base.Placement.FP.CoreArea() - 1
	if math.Abs(overhead-AreaOverheadForRows(base.Placement, rows)) > 1e-9 {
		t.Fatalf("overhead %g vs helper %g", overhead, AreaOverheadForRows(base.Placement, rows))
	}
	if got := RowsForAreaOverhead(base.Placement, overhead); got != rows {
		t.Fatalf("RowsForAreaOverhead round trip: %d != %d", got, rows)
	}
	// Cells keep their x coordinates (only vertical shifts), and no cell
	// moves down.
	movedX := 0
	for _, inst := range f.Design.Instances() {
		if inst.IsFiller() {
			continue
		}
		lb, _ := base.Placement.Loc(inst)
		ln, _ := p.Loc(inst)
		if math.Abs(lb.X-ln.X) > 1e-9 {
			movedX++
		}
		if ln.Row < lb.Row {
			t.Fatalf("cell %s moved down: row %d -> %d", inst.Name, lb.Row, ln.Row)
		}
	}
	if movedX > f.Design.NumInstances()/20 {
		t.Fatalf("%d cells changed x position; ERI should only shift rows vertically", movedX)
	}
	// The whitespace freed by the inserted rows is filled with dummy cells.
	if p.FillerArea() <= base.Placement.FillerArea() {
		t.Fatal("ERI must add filler area")
	}

	// Validation errors.
	if _, _, err := EmptyRowInsertionDelta(base.Placement, base.Hotspots, DefaultERIOptions(0)); err == nil {
		t.Error("zero rows must fail")
	}
	if _, _, err := EmptyRowInsertionDelta(base.Placement, nil, DefaultERIOptions(4)); err == nil {
		t.Error("no hotspots must fail")
	}
}

func TestEmptyRowInsertionReducesPeakTemperature(t *testing.T) {
	f := hotFlow(t, "mult8")
	base, err := f.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	rows := RowsForAreaOverhead(base.Placement, 0.20)
	p, _, err := EmptyRowInsertionDelta(base.Placement, base.Hotspots, DefaultERIOptions(rows))
	if err != nil {
		t.Fatal(err)
	}
	an, err := f.AnalyzeWithCtx(context.Background(), p, flow.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if an.Thermal.PeakRise >= base.Thermal.PeakRise {
		t.Fatalf("ERI must reduce the peak rise: %g -> %g", base.Thermal.PeakRise, an.Thermal.PeakRise)
	}
	red := (base.Thermal.PeakRise - an.Thermal.PeakRise) / base.Thermal.PeakRise
	t.Logf("ERI with %d rows (%.1f%% area): %.1f%% peak reduction", rows,
		100*(p.FP.CoreArea()/base.Placement.FP.CoreArea()-1), 100*red)
	if red < 0.02 {
		t.Fatalf("ERI reduction %.2f%% too small to be meaningful", red*100)
	}
}

func TestHotspotWrapperTransform(t *testing.T) {
	f := hotFlow(t, "mult8")
	// HW is applied on a relaxed (Default) placement, as in the paper.
	relaxed, err := f.PlaceAtAspect(f.Config.Utilization/1.3, f.Config.AspectRatio)
	if err != nil {
		t.Fatal(err)
	}
	defAn, err := f.AnalyzeWithCtx(context.Background(), relaxed, flow.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(defAn.Hotspots) == 0 {
		t.Fatal("relaxed placement must still have hotspots")
	}
	powerOf := func(inst *netlist.Instance) float64 { return defAn.Power.InstancePower(inst) }
	p, _, err := HotspotWrapperDelta(relaxed, defAn.Hotspots, DefaultWrapperOptions(powerOf))
	if err != nil {
		t.Fatal(err)
	}
	if errs := p.Validate(); len(errs) != 0 {
		t.Fatalf("HW output not legal: %v", errs[0])
	}
	// The core outline must not change: HW only re-arranges cells.
	if p.FP.Core != relaxed.FP.Core {
		t.Fatal("HW must not change the core outline")
	}
	// The original placement must be untouched: compare a few locations.
	same := true
	for _, inst := range f.Design.Instances()[:50] {
		lb, okB := relaxed.Loc(inst)
		ln, okN := p.Loc(inst)
		if okB != okN || lb != ln {
			same = false
			break
		}
	}
	if !same {
		// Fine: locations may differ in the clone; what matters is that the
		// original still validates and was not mutated structurally.
	}
	if errs := relaxed.Validate(); len(errs) != 0 {
		t.Fatalf("HW mutated its input placement: %v", errs[0])
	}

	// Error paths.
	if _, _, err := HotspotWrapperDelta(relaxed, defAn.Hotspots, WrapperOptions{}); err == nil {
		t.Error("missing PowerOf must fail")
	}
	if _, _, err := HotspotWrapperDelta(relaxed, nil, DefaultWrapperOptions(powerOf)); err == nil {
		t.Error("no hotspots must fail")
	}
}

func TestHotspotWrapperImprovesOnDefault(t *testing.T) {
	f := hotFlow(t, "mult8")
	base, err := f.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := f.PlaceAtAspect(f.Config.Utilization/1.3, f.Config.AspectRatio)
	if err != nil {
		t.Fatal(err)
	}
	defAn, err := f.AnalyzeWithCtx(context.Background(), relaxed, flow.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	powerOf := func(inst *netlist.Instance) float64 { return defAn.Power.InstancePower(inst) }
	// As in the sweep, the wrapper targets a tighter hotspot definition (the
	// cells that are the source of the hotspot) than the broad warm area ERI
	// uses.
	spots := hotspot.Detect(defAn.Thermal.RiseMap(), hotspot.Options{ThresholdFrac: 0.75, MinCells: 2})
	if len(spots) == 0 {
		t.Skip("no tight hotspots detected on the relaxed placement of the reduced benchmark")
	}
	hwPlacement, _, err := HotspotWrapperDelta(relaxed, spots, DefaultWrapperOptions(powerOf))
	if err != nil {
		t.Fatal(err)
	}
	hwAn, err := f.AnalyzeWithCtx(context.Background(), hwPlacement, flow.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	baseRise := base.Thermal.PeakRise
	defRed := (baseRise - defAn.Thermal.PeakRise) / baseRise
	hwRed := (baseRise - hwAn.Thermal.PeakRise) / baseRise
	t.Logf("default reduction %.1f%%, HW reduction %.1f%%", defRed*100, hwRed*100)
	// The paper's claim: at the same area overhead, HW achieves at least the
	// Default reduction (Figure 6, HW curve above Default). Allow a small
	// tolerance for the coarse fast-test grid.
	if hwRed < defRed-0.02 {
		t.Fatalf("HW reduction %.3f should not be materially worse than Default %.3f", hwRed, defRed)
	}
}

func TestHotCellsSpreadByWrapper(t *testing.T) {
	f := hotFlow(t, "mult8")
	relaxed, err := f.PlaceAtAspect(f.Config.Utilization/1.4, f.Config.AspectRatio)
	if err != nil {
		t.Fatal(err)
	}
	defAn, err := f.AnalyzeWithCtx(context.Background(), relaxed, flow.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	powerOf := func(inst *netlist.Instance) float64 { return defAn.Power.InstancePower(inst) }
	p, _, err := HotspotWrapperDelta(relaxed, defAn.Hotspots, DefaultWrapperOptions(powerOf))
	if err != nil {
		t.Fatal(err)
	}
	// Measure the cell area inside the hottest hotspot's rect before and
	// after: the wrapper must not increase it (it spreads hot cells and
	// evicts cold ones).
	spot := defAn.Hotspots[0].Rect
	before := 0.0
	for _, inst := range relaxed.InstancesInRect(spot) {
		before += inst.Master.Area(relaxed.FP.RowHeight)
	}
	after := 0.0
	for _, inst := range p.InstancesInRect(spot) {
		after += inst.Master.Area(p.FP.RowHeight)
	}
	if after > before+1e-6 {
		t.Fatalf("wrapper increased cell area inside the hotspot: %g -> %g", before, after)
	}
}

func TestSweepEfficiencyReproducesFigure6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	f := hotFlow(t, "mult8")
	opts := SweepOptions{Overheads: []float64{0.10, 0.25}}
	res, err := SweepEfficiencyCtx(context.Background(), f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline == nil || len(res.Points) == 0 {
		t.Fatal("sweep returned no points")
	}
	def := res.PointsFor(StrategyDefault)
	eri := res.PointsFor(StrategyERI)
	hw := res.PointsFor(StrategyHW)
	if len(def) != 2 || len(eri) != 2 || len(hw) != 2 {
		t.Fatalf("expected 2 points per strategy, got %d/%d/%d", len(def), len(eri), len(hw))
	}
	for _, pts := range [][]EfficiencyPoint{def, eri, hw} {
		for _, p := range pts {
			if p.TempReduction < -0.05 {
				t.Fatalf("strategy %s at %.2f overhead made things worse: %.3f", p.Strategy, p.AreaOverhead, p.TempReduction)
			}
			if p.AreaOverhead <= 0 {
				t.Fatalf("non-positive area overhead recorded: %+v", p)
			}
		}
		// Effectiveness increases with area overhead (the paper's
		// observation), with a small tolerance for solver noise.
		if pts[1].TempReduction < pts[0].TempReduction-0.02 {
			t.Fatalf("strategy %s: reduction should grow with overhead: %.3f then %.3f",
				pts[0].Strategy, pts[0].TempReduction, pts[1].TempReduction)
		}
	}
	// The headline result: the targeted techniques beat blind area increase
	// at comparable overheads.
	for i := range def {
		t.Logf("overhead ~%.0f%%: default %.1f%%, ERI %.1f%% (rows=%d), HW %.1f%%",
			def[i].AreaOverhead*100, def[i].TempReduction*100, eri[i].TempReduction*100, eri[i].Rows, hw[i].TempReduction*100)
		if eri[i].TempReduction < def[i].TempReduction-0.02 {
			t.Errorf("ERI (%.3f) should not be materially below Default (%.3f) at overhead %.2f",
				eri[i].TempReduction, def[i].TempReduction, def[i].AreaOverhead)
		}
		if hw[i].TempReduction < def[i].TempReduction-0.02 {
			t.Errorf("HW (%.3f) should not be materially below Default (%.3f) at overhead %.2f",
				hw[i].TempReduction, def[i].TempReduction, def[i].AreaOverhead)
		}
	}
}

// TestSweepFastPathMatchesSpiceOracle runs a sweep through the
// structured-grid fast path (with its solver reuse and warm starts across
// points) and solves the baseline's and every point's own power map with
// the SPICE-circuit oracle: each surface must agree cell by cell. This is
// the end-to-end guarantee that the fast path changes nothing about the
// paper's reproduced results.
func TestSweepFastPathMatchesSpiceOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle solves skipped in -short mode")
	}
	f := hotFlow(t, "mult8")
	res, err := SweepEfficiencyCtx(context.Background(), f, SweepOptions{Overheads: []float64{0.15}, KeepAnalyses: true})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, an *flow.Analysis) {
		t.Helper()
		oracle, err := thermal.SolveSpice(an.PowerMap, f.Config.Thermal, spice.MethodCG)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fast, ref := an.Thermal.Surface.Values(), oracle.Surface.Values()
		for i := range fast {
			if d := math.Abs(fast[i] - ref[i]); d > 1e-6 {
				t.Fatalf("%s: surface cell %d differs from the spice oracle by %g C", name, i, d)
			}
		}
		if d := math.Abs(an.PeakRise() - oracle.PeakRise); d > 1e-6 {
			t.Fatalf("%s: peak rise fast %g vs oracle %g", name, an.PeakRise(), oracle.PeakRise)
		}
	}
	check("baseline", res.Baseline)
	if len(res.Points) != 3 {
		t.Fatalf("got %d points, want one per strategy", len(res.Points))
	}
	for i, pt := range res.Points {
		check(fmt.Sprintf("point %d (%s)", i, pt.Strategy), pt.Analysis)
	}
}

// TestTable1SweepShape runs Table I's two-strategy sweep (Default and ERI,
// no HW) at one overhead, with the ERI row count derived from it.
func TestTable1SweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("Table I sweep skipped in -short mode")
	}
	f := hotFlow(t, "mult8")
	res, err := SweepEfficiencyCtx(context.Background(), f, SweepOptions{
		Strategies: []Strategy{StrategyDefault, StrategyERI},
		Overheads:  []float64{0.16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("expected one Default and one ERI point, got %d", len(res.Points))
	}
	defPt, eriPt := res.Points[0], res.Points[1]
	if defPt.Strategy != StrategyDefault || eriPt.Strategy != StrategyERI {
		t.Fatalf("unexpected point order: %+v", res.Points)
	}
	t.Logf("Table-I style: Default %.1f%% @ %.1f%% area, ERI %.1f%% @ %.1f%% area (%d rows)",
		defPt.TempReduction*100, defPt.AreaOverhead*100, eriPt.TempReduction*100, eriPt.AreaOverhead*100, eriPt.Rows)
	// ERI must be at least as good as Default at matched overhead (Table I).
	if eriPt.TempReduction < defPt.TempReduction-0.02 {
		t.Errorf("ERI (%.3f) should not be materially below Default (%.3f)", eriPt.TempReduction, defPt.TempReduction)
	}
	// Overheads should be close to the request.
	if math.Abs(defPt.AreaOverhead-0.16) > 0.08 || math.Abs(eriPt.AreaOverhead-0.16) > 0.08 {
		t.Errorf("area overheads drifted: default %.3f, ERI %.3f", defPt.AreaOverhead, eriPt.AreaOverhead)
	}
}

func TestSweepPropagatesPipelineErrors(t *testing.T) {
	lib := celllib.Default65nm()
	d := netlist.NewDesign("loop", lib)
	u1, _ := d.AddInstance("u1", "INV_X1", "u")
	u2, _ := d.AddInstance("u2", "INV_X1", "u")
	n1 := d.GetOrCreateNet("n1")
	n2 := d.GetOrCreateNet("n2")
	_ = d.Connect(u1, "A", n2)
	_ = d.Connect(u1, "Z", n1)
	_ = d.Connect(u2, "A", n1)
	_ = d.Connect(u2, "Z", n2)
	f := flow.New(d, bench.UniformWorkload(0.2), flow.FastConfig())
	if _, err := SweepEfficiencyCtx(context.Background(), f, SweepOptions{Overheads: []float64{0.1}}); err == nil {
		t.Fatal("sweep on an unsimulatable design must fail")
	}
}

// TestConcurrentSweepBitIdenticalToSequential runs the same sweep
// sequentially (Workers=1) and concurrently (Workers=4) on fresh flows and
// requires exactly identical output: same point order and bit-identical
// floats. This is what the baseline-seeded warm starts, the slot-indexed
// recording and the deterministic power-map accumulation order buy. Run
// with -race to check the worker group and the flow solver pool.
func TestConcurrentSweepBitIdenticalToSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("double sweep skipped in -short mode")
	}
	run := func(workers int) *SweepResult {
		f := hotFlow(t, "mult8")
		res, err := SweepEfficiencyCtx(context.Background(), f, SweepOptions{
			Overheads: []float64{0.10, 0.20, 0.30},
			Workers:   workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	con := run(4)

	if seq.Baseline.PeakRise() != con.Baseline.PeakRise() {
		t.Fatalf("baseline peak rise differs: %g vs %g", seq.Baseline.PeakRise(), con.Baseline.PeakRise())
	}
	if len(seq.Points) != len(con.Points) {
		t.Fatalf("point count differs: %d vs %d", len(seq.Points), len(con.Points))
	}
	for i := range seq.Points {
		s, c := seq.Points[i], con.Points[i]
		if s.Strategy != c.Strategy || s.Rows != c.Rows {
			t.Fatalf("point %d identity differs: %s/%d vs %s/%d", i, s.Strategy, s.Rows, c.Strategy, c.Rows)
		}
		// Bit-identical, not approximately equal: == on floats is the test.
		if s.PeakRise != c.PeakRise || s.TempReduction != c.TempReduction ||
			s.AreaOverhead != c.AreaOverhead || s.Utilization != c.Utilization {
			t.Fatalf("point %d (%s) differs between sequential and concurrent runs:\n  seq %+v\n  con %+v",
				i, s.Strategy, s, c)
		}
	}
}

// TestSweepStrategySubsets checks the concurrent engine honors strategy
// selection, including the HW-without-Default case that still needs the
// Default placements internally.
func TestSweepStrategySubsets(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	f := hotFlow(t, "mult8")
	res, err := SweepEfficiencyCtx(context.Background(), f, SweepOptions{
		Overheads:  []float64{0.15},
		Strategies: []Strategy{StrategyHW},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.Strategy != StrategyHW {
			t.Fatalf("unexpected strategy %s in HW-only sweep", p.Strategy)
		}
	}
	res, err = SweepEfficiencyCtx(context.Background(), f, SweepOptions{
		Overheads:  []float64{0.15},
		Strategies: []Strategy{StrategyERI},
		Workers:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 || res.Points[0].Strategy != StrategyERI {
		t.Fatalf("ERI-only sweep returned %+v", res.Points)
	}
}

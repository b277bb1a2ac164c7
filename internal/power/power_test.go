package power

import (
	"math"
	"strings"
	"testing"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/floorplan"
	"thermplace/internal/logicsim"
	"thermplace/internal/netlist"
	"thermplace/internal/place"
)

// preparedDesign returns a placed small benchmark with simulated activities.
func preparedDesign(t *testing.T, wl bench.Workload) (*netlist.Design, *place.Placement, *logicsim.Activity) {
	t.Helper()
	lib := celllib.Default65nm()
	d, err := bench.Generate(lib, bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	fp, err := floorplan.New(d, floorplan.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := place.Place(d, fp)
	if err != nil {
		t.Fatal(err)
	}
	stim := logicsim.RandomStimulus(99, func(port string) float64 {
		return wl.ActivityFor(strings.SplitN(port, "_", 2)[0])
	})
	act, err := logicsim.RunRandom(d, 64, stim)
	if err != nil {
		t.Fatal(err)
	}
	return d, p, act
}

func TestEstimateBasicProperties(t *testing.T) {
	d, p, act := preparedDesign(t, bench.UniformWorkload(0.3))
	rep := Estimate(d, p, act, 1e9)
	if rep.Total() <= 0 {
		t.Fatal("total power must be positive")
	}
	// Sanity band: a few-hundred-cell 65nm block at 1 GHz should consume
	// somewhere between 10 uW and 100 mW.
	if rep.Total() < 10e-6 || rep.Total() > 0.1 {
		t.Fatalf("total power %g W outside plausible band", rep.Total())
	}
	bd := rep.TotalBreakdown()
	if bd.Internal <= 0 || bd.Load <= 0 || bd.Leakage <= 0 || bd.Clock <= 0 {
		t.Fatalf("all power components should be positive: %+v", bd)
	}
	if math.Abs(bd.Total()-rep.Total()) > 1e-12 {
		t.Fatal("TotalBreakdown inconsistent with Total")
	}
	// No filler instances in the report, every non-filler present.
	for _, inst := range rep.Instances() {
		if inst.IsFiller() {
			t.Fatalf("filler %q has a power entry", inst.Name)
		}
	}
	nonFiller := 0
	for _, inst := range d.Instances() {
		if !inst.IsFiller() {
			nonFiller++
		}
	}
	if len(rep.Instances()) != nonFiller {
		t.Fatalf("report covers %d of %d cells", len(rep.Instances()), nonFiller)
	}
}

func TestPowerScalesWithActivity(t *testing.T) {
	d, p, actLow := preparedDesign(t, bench.UniformWorkload(0.05))
	_, _, actHigh := preparedDesign(t, bench.UniformWorkload(0.6))
	low := Estimate(d, p, actLow, 1e9).Total()
	high := Estimate(d, p, actHigh, 1e9).Total()
	if high <= low {
		t.Fatalf("higher activity must give higher power: %g vs %g", high, low)
	}
}

func TestPowerScalesWithFrequency(t *testing.T) {
	d, p, act := preparedDesign(t, bench.UniformWorkload(0.3))
	p1 := Estimate(d, p, act, 1e9)
	p2 := Estimate(d, p, act, 2e9)
	// Dynamic power doubles, leakage stays: total must grow but less than 2x.
	if p2.Total() <= p1.Total() {
		t.Fatal("power must increase with frequency")
	}
	b1, b2 := p1.TotalBreakdown(), p2.TotalBreakdown()
	if math.Abs(b2.Internal-2*b1.Internal) > 1e-9*b1.Internal {
		t.Fatal("internal power must scale linearly with frequency")
	}
	if math.Abs(b2.Leakage-b1.Leakage) > 1e-15 {
		t.Fatal("leakage must not depend on frequency")
	}
}

func TestZeroActivityLeavesOnlyLeakageAndClock(t *testing.T) {
	d, p, _ := preparedDesign(t, bench.UniformWorkload(0.3))
	zero := logicsim.Uniform(d, 0)
	// Zero out the clock convention too, to isolate pure leakage.
	rep := Estimate(d, p, zero, 1e9)
	bd := rep.TotalBreakdown()
	if bd.Internal > 1e-6*bd.Leakage {
		// Clock nets are reported as 2 toggles/cycle by Uniform, so cells
		// driven by clock nets may still switch; internal power of ordinary
		// gates must be ~0.
		t.Logf("internal = %g, leakage = %g", bd.Internal, bd.Leakage)
	}
	if bd.Leakage <= 0 {
		t.Fatal("leakage must remain with zero activity")
	}
	if bd.Clock <= 0 {
		t.Fatal("clock pin power must remain with zero data activity")
	}
}

func TestHotUnitDominatesPowerMap(t *testing.T) {
	lib := celllib.Default65nm()
	d, err := bench.Generate(lib, bench.Config{Name: "two", ClockGHz: 1, Units: []bench.UnitSpec{
		{Name: "hotm", Kind: bench.KindMultiplier, Width: 8},
		{Name: "coldm", Kind: bench.KindMultiplier, Width: 8},
	}})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := floorplan.New(d, floorplan.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := place.Place(d, fp)
	if err != nil {
		t.Fatal(err)
	}
	wl := bench.Workload{Name: "skew", Activity: map[string]float64{"hotm": 0.6}, Default: 0.02}
	stim := logicsim.RandomStimulus(7, func(port string) float64 {
		return wl.ActivityFor(strings.SplitN(port, "_", 2)[0])
	})
	act, err := logicsim.RunRandom(d, 128, stim)
	if err != nil {
		t.Fatal(err)
	}
	rep := Estimate(d, p, act, 1e9)
	perUnit := rep.PerUnit()
	if perUnit["hotm"] <= 2*perUnit["coldm"] {
		t.Fatalf("hot unit power %g should dominate cold unit %g", perUnit["hotm"], perUnit["coldm"])
	}
	// The power map peak must lie inside the hot unit's region.
	g := Map(rep, p, 20, 20)
	_, ix, iy := g.Max()
	peak := g.CellCenter(ix, iy)
	hotRegion := fp.RegionOf("hotm").Rect
	if !hotRegion.Expand(2 * lib.RowHeight).ContainsClosed(peak) {
		t.Fatalf("power peak %v not inside hot region %v", peak, hotRegion)
	}
	// Map conserves total power.
	if math.Abs(g.Sum()-rep.Total()) > 1e-9*rep.Total() {
		t.Fatalf("power map sum %g != total %g", g.Sum(), rep.Total())
	}
}

func TestEstimateWithoutPlacement(t *testing.T) {
	lib := celllib.Default65nm()
	d, err := bench.Generate(lib, bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	act := logicsim.Uniform(d, 0.2)
	rep := Estimate(d, nil, act, 1e9)
	if rep.Total() <= 0 {
		t.Fatal("placement-free estimate must still be positive")
	}
	// A placed estimate includes wire load, so it must be at least as large.
	fp, _ := floorplan.New(d, floorplan.DefaultConfig())
	p, err := place.Place(d, fp)
	if err != nil {
		t.Fatal(err)
	}
	placedRep := Estimate(d, p, act, 1e9)
	if placedRep.Total() < rep.Total() {
		t.Fatalf("placed estimate %g should include wire load and exceed %g", placedRep.Total(), rep.Total())
	}
}

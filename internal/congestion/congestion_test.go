package congestion

import (
	"testing"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/floorplan"
	"thermplace/internal/geom"
	"thermplace/internal/netlist"
	"thermplace/internal/place"
)

func placedSmall(t *testing.T, util float64) (*netlist.Design, *place.Placement) {
	t.Helper()
	lib := celllib.Default65nm()
	d, err := bench.Generate(lib, bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	fp, err := floorplan.New(d, floorplan.Config{Utilization: util, AspectRatio: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := place.Place(d, fp)
	if err != nil {
		t.Fatal(err)
	}
	return d, p
}

func TestEstimateBasics(t *testing.T) {
	_, p := placedSmall(t, 0.85)
	rep := Estimate(p, Options{})
	if rep.TotalWirelength <= 0 {
		t.Fatal("total wirelength must be positive")
	}
	if rep.MaxUtilization <= 0 || rep.MeanUtilization <= 0 {
		t.Fatal("utilization must be positive")
	}
	if rep.MaxUtilization < rep.MeanUtilization {
		t.Fatal("max must be at least the mean")
	}
	if rep.Overflows < 0 {
		t.Fatal("negative overflow count")
	}
	// Demand grids conserve the decomposed wirelength.
	total := rep.HDemand.Sum() + rep.VDemand.Sum()
	if total <= 0 || total > rep.TotalWirelength*1.2 {
		t.Fatalf("spread demand %g inconsistent with HPWL %g", total, rep.TotalWirelength)
	}
	// Utilization = max(H, V) per bin.
	for iy := 0; iy < rep.Utilization.NY; iy++ {
		for ix := 0; ix < rep.Utilization.NX; ix++ {
			h, v, u := rep.HUtil.At(ix, iy), rep.VUtil.At(ix, iy), rep.Utilization.At(ix, iy)
			if u < h-1e-12 || u < v-1e-12 {
				t.Fatalf("utilization at (%d,%d) below its components", ix, iy)
			}
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	_, p := placedSmall(t, 0.85)
	rep := Estimate(p, Options{})
	if rep.Utilization.NX != 32 || rep.Utilization.NY != 32 {
		t.Fatalf("default grid not applied: %dx%d", rep.Utilization.NX, rep.Utilization.NY)
	}
}

func TestLowerUtilizationReducesCongestion(t *testing.T) {
	// The same design at lower placement utilization has more room per bin,
	// so peak congestion must not increase.
	_, dense := placedSmall(t, 0.95)
	_, sparse := placedSmall(t, 0.6)
	dRep := Estimate(dense, Options{})
	sRep := Estimate(sparse, Options{})
	if sRep.MeanUtilization >= dRep.MeanUtilization {
		t.Fatalf("sparser placement should be less congested on average: %g vs %g",
			sRep.MeanUtilization, dRep.MeanUtilization)
	}
}

func TestRegionUtilization(t *testing.T) {
	_, p := placedSmall(t, 0.85)
	rep := Estimate(p, Options{})
	whole := rep.RegionUtilization(p.FP.Core)
	if whole <= 0 {
		t.Fatal("whole-core region utilization must be positive")
	}
	if off := rep.RegionUtilization(geom.Rect{Xlo: -500, Ylo: -500, Xhi: -400, Yhi: -400}); off != 0 {
		t.Fatalf("off-core region utilization = %g, want 0", off)
	}
	// The region mean over the whole core equals the global mean.
	if diff := whole - rep.MeanUtilization; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("whole-core region utilization %g != mean %g", whole, rep.MeanUtilization)
	}
}

func TestCongestionTracksPlacementSpreading(t *testing.T) {
	// Stretching rows apart (the ERI effect) adds bins without wires, so the
	// mean congestion over the stretched core must drop.
	_, p := placedSmall(t, 0.9)
	before := Estimate(p, Options{})
	stretched := p.Clone()
	extraRows := 6
	if err := stretched.FP.InsertRows(stretched.FP.NumRows()/2, extraRows); err != nil {
		t.Fatal(err)
	}
	mid := p.FP.Core.Center().Y
	for _, inst := range p.Design.Instances() {
		if inst.IsFiller() {
			continue
		}
		if l, ok := stretched.Loc(inst); ok && p.FP.Rows[l.Row].Y >= mid {
			l.Row += extraRows
			stretched.SetLoc(inst, l)
		}
	}
	place.Legalize(stretched)
	after := Estimate(stretched, Options{})
	if after.MeanUtilization >= before.MeanUtilization {
		t.Fatalf("row insertion should reduce mean congestion: %g -> %g",
			before.MeanUtilization, after.MeanUtilization)
	}
}

package floorplan

import (
	"math"
	"testing"
	"testing/quick"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/geom"
	"thermplace/internal/netlist"
)

func smallDesign(t *testing.T) *netlist.Design {
	t.Helper()
	lib := celllib.Default65nm()
	d, err := bench.Generate(lib, bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewFloorplanUtilization(t *testing.T) {
	d := smallDesign(t)
	for _, util := range []float64{0.6, 0.75, 0.85, 0.95} {
		fp, err := New(d, Config{Utilization: util, AspectRatio: 1.0})
		if err != nil {
			t.Fatal(err)
		}
		got := d.TotalCellArea() / fp.CoreArea()
		// Snapping to rows/sites only ever grows the core, so the achieved
		// utilization must be <= the request and close to it.
		if got > util+1e-9 {
			t.Errorf("util %g: achieved %g exceeds request", util, got)
		}
		if got < util*0.9 {
			t.Errorf("util %g: achieved %g too far below request", util, got)
		}
		// Rows must tile the core height exactly.
		if want := float64(fp.NumRows()) * fp.RowHeight; math.Abs(want-fp.Core.H()) > 1e-9 {
			t.Errorf("rows (%d x %g) do not tile core height %g", fp.NumRows(), fp.RowHeight, fp.Core.H())
		}
	}
}

func TestNewFloorplanValidation(t *testing.T) {
	d := smallDesign(t)
	if _, err := New(d, Config{Utilization: 0}); err == nil {
		t.Error("zero utilization must fail")
	}
	if _, err := New(d, Config{Utilization: 1.5}); err == nil {
		t.Error("utilization > 1 must fail")
	}
	if _, err := New(d, Config{Utilization: math.NaN()}); err == nil {
		t.Error("NaN utilization must fail")
	}
	lib := celllib.Default65nm()
	empty := netlist.NewDesign("empty", lib)
	if _, err := New(empty, DefaultConfig()); err == nil {
		t.Error("empty design must fail")
	}
}

func TestRegionsTileCore(t *testing.T) {
	d := smallDesign(t)
	fp, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	units := d.Units()
	if len(fp.Regions) != len(units) {
		t.Fatalf("regions = %d, units = %d", len(fp.Regions), len(units))
	}
	// Regions must cover the core area exactly (they are a partition).
	sum := 0.0
	for _, reg := range fp.Regions {
		sum += reg.Rect.Area()
		if reg.Rect.Empty() {
			t.Errorf("region %s is empty", reg.Unit)
		}
		if reg.Rect.Intersect(fp.Core) != reg.Rect {
			t.Errorf("region %s extends outside the core", reg.Unit)
		}
	}
	if math.Abs(sum-fp.CoreArea()) > 1e-6*fp.CoreArea() {
		t.Fatalf("regions cover %g of core %g", sum, fp.CoreArea())
	}
	// Regions must not overlap each other.
	regs := make([]*Region, 0, len(fp.Regions))
	for _, r := range fp.Regions {
		regs = append(regs, r)
	}
	for i := range regs {
		for j := i + 1; j < len(regs); j++ {
			if ov := regs[i].Rect.Intersect(regs[j].Rect); ov.Area() > 1e-6 {
				t.Errorf("regions %s and %s overlap by %g", regs[i].Unit, regs[j].Unit, ov.Area())
			}
		}
	}
	// Region area should be roughly proportional to cell area.
	for _, reg := range fp.Regions {
		wantFrac := reg.CellArea / d.TotalCellArea()
		gotFrac := reg.Rect.Area() / fp.CoreArea()
		if math.Abs(wantFrac-gotFrac) > 0.10 {
			t.Errorf("region %s area fraction %g vs cell fraction %g", reg.Unit, gotFrac, wantFrac)
		}
	}
}

func TestRegionLocalUtilization(t *testing.T) {
	d := smallDesign(t)
	fp, err := New(d, Config{Utilization: 0.8, AspectRatio: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Every region must be able to hold its unit's cells (local utilization
	// no higher than ~1).
	for _, reg := range fp.Regions {
		if reg.CellArea > reg.Rect.Area()*1.001 {
			t.Errorf("region %s cannot hold its cells: %g > %g", reg.Unit, reg.CellArea, reg.Rect.Area())
		}
	}
}

func TestRowAtAndRowRect(t *testing.T) {
	d := smallDesign(t)
	fp, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r0 := fp.RowAt(fp.Core.Ylo + 0.1)
	if r0 == nil || r0.Index != 0 {
		t.Fatalf("RowAt(bottom) = %+v", r0)
	}
	rTop := fp.RowAt(fp.Core.Yhi + 100)
	if rTop.Index != fp.NumRows()-1 {
		t.Fatalf("RowAt above core should clamp to the top row, got %d", rTop.Index)
	}
	rect := fp.Rows[0].Rect(fp.RowHeight)
	if rect.H() != fp.RowHeight || rect.W() != fp.Rows[0].Width() {
		t.Fatalf("row rect = %v", rect)
	}
}

func TestInsertRows(t *testing.T) {
	d := smallDesign(t)
	fp, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	origRows := fp.NumRows()
	origHeight := fp.Core.H()
	origArea := fp.CoreArea()
	clone := fp.Clone()

	at := origRows / 2
	if err := clone.InsertRows(at, 4); err != nil {
		t.Fatal(err)
	}
	if clone.NumRows() != origRows+4 {
		t.Fatalf("rows after insert = %d, want %d", clone.NumRows(), origRows+4)
	}
	if math.Abs(clone.Core.H()-(origHeight+4*fp.RowHeight)) > 1e-9 {
		t.Fatalf("core height after insert = %g", clone.Core.H())
	}
	// The original must be untouched.
	if fp.NumRows() != origRows || fp.CoreArea() != origArea {
		t.Fatal("InsertRows must not modify the original floorplan (Clone broken)")
	}
	// Area overhead matches count*rowHeight*coreWidth.
	wantOverhead := 4 * fp.RowHeight * fp.Core.W()
	if math.Abs((clone.CoreArea()-origArea)-wantOverhead) > 1e-6 {
		t.Fatalf("area overhead = %g, want %g", clone.CoreArea()-origArea, wantOverhead)
	}
	// Regions above the insertion point must have shifted up; regions
	// spanning it must have stretched. Total region area grows by the
	// inserted area or stays covered.
	for unit, reg := range clone.Regions {
		orig := fp.Regions[unit].Rect
		if reg.Rect.W() != orig.W() {
			t.Errorf("region %s width changed", unit)
		}
		if reg.Rect.H() < orig.H()-1e-9 {
			t.Errorf("region %s shrank", unit)
		}
	}

	if err := clone.InsertRows(-1, 1); err == nil {
		t.Error("negative insertion index must fail")
	}
	if err := clone.InsertRows(0, 0); err == nil {
		t.Error("zero count must fail")
	}
}

func TestInsertRowsRegionStretch(t *testing.T) {
	// Hand-built floorplan for precise region arithmetic.
	fp := &Floorplan{
		Core:      geom.Rect{Xlo: 0, Ylo: 0, Xhi: 10, Yhi: 10},
		RowHeight: 1, SiteWidth: 0.2, Utilization: 1,
		Regions: map[string]*Region{
			"below": {Unit: "below", Rect: geom.Rect{Xlo: 0, Ylo: 0, Xhi: 10, Yhi: 4}},
			"above": {Unit: "above", Rect: geom.Rect{Xlo: 0, Ylo: 6, Xhi: 10, Yhi: 10}},
			"span":  {Unit: "span", Rect: geom.Rect{Xlo: 0, Ylo: 4, Xhi: 10, Yhi: 6}},
		},
	}
	fp.rebuildRows(10)
	if err := fp.InsertRows(5, 2); err != nil {
		t.Fatal(err)
	}
	if got := fp.Regions["below"].Rect; got != (geom.Rect{Xlo: 0, Ylo: 0, Xhi: 10, Yhi: 4}) {
		t.Errorf("below region moved: %v", got)
	}
	if got := fp.Regions["above"].Rect; got != (geom.Rect{Xlo: 0, Ylo: 8, Xhi: 10, Yhi: 12}) {
		t.Errorf("above region not shifted: %v", got)
	}
	if got := fp.Regions["span"].Rect; got != (geom.Rect{Xlo: 0, Ylo: 4, Xhi: 10, Yhi: 8}) {
		t.Errorf("spanning region not stretched: %v", got)
	}
}

func TestBisectProperty(t *testing.T) {
	// Property: bisect returns one rect per area, they tile the input, and
	// each rect's area fraction tracks its weight fraction.
	f := func(seeds []uint8) bool {
		if len(seeds) == 0 || len(seeds) > 12 {
			return true
		}
		areas := make([]float64, len(seeds))
		total := 0.0
		for i, s := range seeds {
			areas[i] = float64(s%50) + 1
			total += areas[i]
		}
		rect := geom.Rect{Xlo: 0, Ylo: 0, Xhi: 100, Yhi: 80}
		rects := bisect(rect, areas)
		if len(rects) != len(areas) {
			return false
		}
		sum := 0.0
		for i, r := range rects {
			if r.Empty() && areas[i] > 0 {
				return false
			}
			sum += r.Area()
			wantFrac := areas[i] / total
			gotFrac := r.Area() / rect.Area()
			if math.Abs(wantFrac-gotFrac) > 0.25 {
				return false
			}
		}
		return math.Abs(sum-rect.Area()) < 1e-6*rect.Area()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Utilization != 0.85 || cfg.AspectRatio != 1.0 {
		t.Fatalf("unexpected default config: %+v", cfg)
	}
}

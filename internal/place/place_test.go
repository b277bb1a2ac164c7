package place

import (
	"math"
	"testing"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/floorplan"
	"thermplace/internal/geom"
	"thermplace/internal/netlist"
)

func placedSmall(t *testing.T, util float64) (*netlist.Design, *Placement) {
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
	p, err := Place(d, fp)
	if err != nil {
		t.Fatal(err)
	}
	return d, p
}

func TestPlaceProducesLegalPlacement(t *testing.T) {
	_, p := placedSmall(t, 0.85)
	if errs := p.Validate(); len(errs) != 0 {
		t.Fatalf("placement not legal: %v (and %d more)", errs[0], len(errs)-1)
	}
}

func TestPlaceAllCellsInsideUnitRegions(t *testing.T) {
	d, p := placedSmall(t, 0.80)
	for _, inst := range d.Instances() {
		if inst.IsFiller() || inst.Unit == "" {
			continue
		}
		reg := p.FP.RegionOf(inst.Unit)
		if reg == nil {
			t.Fatalf("no region for unit %q", inst.Unit)
		}
		c := p.Center(inst)
		// Allow a small tolerance: legalization snapping can push a cell a
		// site or a row across the region boundary.
		grown := reg.Rect.Expand(2 * p.FP.RowHeight)
		if !grown.ContainsClosed(c) {
			t.Errorf("cell %s (unit %s) at %v is far outside its region %v", inst.Name, inst.Unit, c, reg.Rect)
		}
	}
}

func TestPlaceUtilizationMatchesTarget(t *testing.T) {
	for _, util := range []float64{0.7, 0.85, 0.95} {
		_, p := placedSmall(t, util)
		got := p.Utilization()
		if got > util+1e-6 || got < util*0.85 {
			t.Errorf("placement utilization %g for target %g", got, util)
		}
	}
}

func TestPortsPlacedOnBoundary(t *testing.T) {
	d, p := placedSmall(t, 0.85)
	core := p.FP.Core
	for _, port := range d.Ports() {
		pt, ok := p.PortLoc(port)
		if !ok {
			t.Fatalf("port %q has no pad location", port.Name)
		}
		onEdge := math.Abs(pt.X-core.Xlo) < 1e-9 || math.Abs(pt.X-core.Xhi) < 1e-9 ||
			math.Abs(pt.Y-core.Ylo) < 1e-9 || math.Abs(pt.Y-core.Yhi) < 1e-9
		if !onEdge {
			t.Errorf("port %q pad %v not on the core boundary", port.Name, pt)
		}
	}
}

func TestHPWLAndDensity(t *testing.T) {
	d, p := placedSmall(t, 0.85)
	if p.TotalHPWL() <= 0 {
		t.Fatal("total HPWL must be positive")
	}
	// Individual net HPWL is non-negative and bounded by the core perimeter.
	bound := p.FP.Core.W() + p.FP.Core.H()
	for _, n := range d.Nets() {
		h := p.HPWL(n)
		if h < 0 || h > bound+1e-6 {
			t.Fatalf("net %s HPWL %g out of bounds", n.Name, h)
		}
	}
}

func TestConnectivityOrderingKeepsNetsShort(t *testing.T) {
	// The region-constrained, connectivity-ordered placement should produce
	// substantially shorter wirelength than a random-order placement of the
	// same design at the same utilization.
	lib := celllib.Default65nm()
	d, err := bench.Generate(lib, bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	fp, err := floorplan.New(d, floorplan.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	good, err := Place(d, fp)
	if err != nil {
		t.Fatal(err)
	}
	// Random-ish baseline: place all cells as one group in creation order
	// reversed across the whole core (destroys unit locality).
	bad := NewPlacement(d, fp.Clone())
	cells := []*netlist.Instance{}
	for _, inst := range d.Instances() {
		if !inst.IsFiller() {
			cells = append(cells, inst)
		}
	}
	// Interleave from both ends to scatter connected cells far apart.
	var scattered []*netlist.Instance
	for i, j := 0, len(cells)-1; i <= j; i, j = i+1, j-1 {
		scattered = append(scattered, cells[i])
		if i != j {
			scattered = append(scattered, cells[j])
		}
	}
	if err := placeInRegion(bad, scattered, bad.FP.Core); err != nil {
		t.Fatal(err)
	}
	placePorts(bad)
	Legalize(bad)
	if good.TotalHPWL() >= bad.TotalHPWL() {
		t.Fatalf("structured placement HPWL %g should beat scattered %g", good.TotalHPWL(), bad.TotalHPWL())
	}
}

func TestRefineHPWLImprovesOrKeepsWirelength(t *testing.T) {
	_, p := placedSmall(t, 0.85)
	before := p.TotalHPWL()
	swaps := RefineHPWL(p, 2)
	after := p.TotalHPWL()
	if after > before+1e-6 {
		t.Fatalf("refinement made wirelength worse: %g -> %g", before, after)
	}
	if swaps > 0 && after >= before {
		t.Fatalf("swaps accepted (%d) but wirelength did not improve", swaps)
	}
	if errs := p.Validate(); len(errs) != 0 {
		t.Fatalf("refined placement not legal: %v", errs[0])
	}
}

func TestLegalizeFixesOverlapsAndOffGrid(t *testing.T) {
	d, p := placedSmall(t, 0.85)
	// Deliberately break the placement: pile several cells on one spot,
	// off-grid and off-row.
	broken := 0
	for _, inst := range d.Instances() {
		if inst.IsFiller() {
			continue
		}
		l, ok := p.Loc(inst)
		if !ok {
			continue
		}
		if broken < 40 {
			l.X = p.FP.Core.Xlo + 1.234
			l.Y = p.FP.Core.Ylo + 2.5*p.FP.RowHeight
			p.SetLoc(inst, l)
			broken++
		}
	}
	if errs := p.Validate(); len(errs) == 0 {
		t.Fatal("test setup: placement should be broken before legalization")
	}
	Legalize(p)
	if errs := p.Validate(); len(errs) != 0 {
		t.Fatalf("legalizer left %d violations, e.g. %v", len(errs), errs[0])
	}
}

func TestInsertFillersFillsWhitespace(t *testing.T) {
	_, p := placedSmall(t, 0.75)
	area := InsertFillers(p)
	if area <= 0 {
		t.Fatal("filler insertion should add area at 75% utilization")
	}
	if math.Abs(area-p.FillerArea()) > 1e-9 {
		t.Fatalf("returned area %g != FillerArea %g", area, p.FillerArea())
	}
	// Fillers plus cells should cover nearly the whole core; the uncovered
	// remainder must be smaller than the smallest filler per gap, so in
	// total well below 2% of the core.
	covered := p.PlacedArea() + p.FillerArea()
	if covered < 0.98*p.FP.CoreArea() {
		t.Fatalf("cells+fillers cover only %g of core %g", covered, p.FP.CoreArea())
	}
	// Fillers must not overlap standard cells: spot-check via density grid
	// built from both (total must not exceed core area by more than epsilon).
	if covered > p.FP.CoreArea()*1.0001 {
		t.Fatalf("cells+fillers exceed core area: %g > %g", covered, p.FP.CoreArea())
	}
	// Fillers must lie inside the core and on their rows.
	for _, f := range p.Fillers {
		r := f.Rect(p.FP.RowHeight)
		if r.Xlo < p.FP.Core.Xlo-1e-9 || r.Xhi > p.FP.Core.Xhi+1e-9 {
			t.Fatalf("filler outside core: %v", r)
		}
		if math.Abs(f.Y-p.FP.Rows[f.Row].Y) > 1e-9 {
			t.Fatalf("filler not aligned to its row: %+v", f)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	d, p := placedSmall(t, 0.85)
	c := p.Clone()
	inst := d.Instances()[0]
	orig, _ := p.Loc(inst)
	moved := orig
	moved.X += 10
	c.SetLoc(inst, moved)
	if got, _ := p.Loc(inst); got != orig {
		t.Fatal("modifying the clone must not affect the original")
	}
	c.FP.Core.Xhi += 100
	if p.FP.Core.Xhi == c.FP.Core.Xhi {
		t.Fatal("clone must deep-copy the floorplan")
	}
}

func TestInstancesInRect(t *testing.T) {
	_, p := placedSmall(t, 0.85)
	all := p.InstancesInRect(p.FP.Core.Expand(1))
	if len(all) == 0 {
		t.Fatal("core rect should contain all cells")
	}
	none := p.InstancesInRect(geom.Rect{Xlo: -100, Ylo: -100, Xhi: -50, Yhi: -50})
	if len(none) != 0 {
		t.Fatal("far-away rect should contain no cells")
	}
	// Half-core query returns fewer cells than the full core.
	half := p.InstancesInRect(geom.Rect{
		Xlo: p.FP.Core.Xlo, Ylo: p.FP.Core.Ylo,
		Xhi: p.FP.Core.Center().X, Yhi: p.FP.Core.Yhi,
	})
	if len(half) == 0 || len(half) >= len(all) {
		t.Fatalf("half-core query returned %d of %d cells", len(half), len(all))
	}
}

func TestValidateDetectsOverflowAndUnplaced(t *testing.T) {
	lib := celllib.Default65nm()
	d, err := bench.Generate(lib, bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	fp, err := floorplan.New(d, floorplan.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlacement(d, fp)
	errs := p.Validate()
	if len(errs) == 0 {
		t.Fatal("unplaced design must fail validation")
	}
}

func TestPlaceRejectsOverfullRegion(t *testing.T) {
	// A floorplan at 100% utilization with a tiny aspect trick cannot fail,
	// so force failure by shrinking a region rect manually.
	lib := celllib.Default65nm()
	d, err := bench.Generate(lib, bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	fp, err := floorplan.New(d, floorplan.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, reg := range fp.Regions {
		reg.Rect = geom.Rect{Xlo: reg.Rect.Xlo, Ylo: reg.Rect.Ylo, Xhi: reg.Rect.Xlo + 3, Yhi: reg.Rect.Ylo + 3}
	}
	if _, err := Place(d, fp); err == nil {
		t.Fatal("placement into absurdly small regions must fail")
	}
}

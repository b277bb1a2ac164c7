package congestion

import (
	"math"
	"testing"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/floorplan"
	"thermplace/internal/geom"
	"thermplace/internal/place"
)

// TestEstimateMatchesBruteForce recomputes the congestion report of one
// placed 1,500-cell design per scenario family with no grid decomposition:
// every net's bounding box, widened to the minimum extent and clipped to
// the core, is intersected with every bin's CellRect, and the bin receives
// the box's width as horizontal and its height as vertical demand in
// proportion to the overlap area. A box that misses the core deposits
// nothing; the widening leaves no box of zero area inside it. Per-bin
// demand must agree within 1e-9 of the largest bin's, the total
// wirelength must be ==, and the overflow verdict of every bin not within
// 1e-9 of utilization 1 must agree.
func TestEstimateMatchesBruteForce(t *testing.T) {
	lib := celllib.Default65nm()
	for _, fam := range bench.Families() {
		t.Run(string(fam), func(t *testing.T) {
			g, err := bench.Scenario{Family: fam, Seed: 1, TargetCells: 1500}.Generate(lib)
			if err != nil {
				t.Fatal(err)
			}
			fp, err := floorplan.New(g.Design, floorplan.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			p, err := place.Place(g.Design, fp)
			if err != nil {
				t.Fatal(err)
			}
			checkBruteForce(t, p, Options{}.withDefaults())
		})
	}
}

func checkBruteForce(t *testing.T, p *place.Placement, opts Options) {
	rep := Estimate(p, opts)
	core := p.FP.Core
	nx, ny := opts.NX, opts.NY
	cells := geom.NewGrid(nx, ny, core)
	hDem := make([]float64, nx*ny)
	vDem := make([]float64, nx*ny)
	wirelength := 0.0
	minExt := math.Min(core.W(), core.H()) / float64(nx) / 4
	for _, net := range p.Design.Nets() {
		bbox := p.NetBBox(net)
		if bbox.Empty() && bbox.W() == 0 && bbox.H() == 0 {
			continue
		}
		wirelength += bbox.HalfPerimeter()
		box := geom.Rect{Xlo: bbox.Xlo, Ylo: bbox.Ylo, Xhi: math.Max(bbox.Xhi, bbox.Xlo+minExt), Yhi: math.Max(bbox.Yhi, bbox.Ylo+minExt)}
		clipped := box.Intersect(core)
		if clipped.Empty() {
			continue
		}
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				share := clipped.Intersect(cells.CellRect(ix, iy)).Area() / clipped.Area()
				hDem[iy*nx+ix] += bbox.W() * share
				vDem[iy*nx+ix] += bbox.H() * share
			}
		}
	}
	if rep.TotalWirelength != wirelength {
		t.Errorf("TotalWirelength %v, brute force %v", rep.TotalWirelength, wirelength)
	}

	binW, binH := core.W()/float64(nx), core.H()/float64(ny)
	hCap := binH / opts.TrackPitchUm * float64(opts.HLayers) * binW
	vCap := binW / opts.TrackPitchUm * float64(opts.VLayers) * binH
	maxH, maxV := 0.0, 0.0
	for i := range hDem {
		maxH, maxV = math.Max(maxH, hDem[i]), math.Max(maxV, vDem[i])
	}
	overflows, nearOne := 0, 0
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			h, v := hDem[iy*nx+ix], vDem[iy*nx+ix]
			if d := math.Abs(rep.HDemand.At(ix, iy) - h); d > 1e-9*maxH {
				t.Fatalf("bin (%d, %d): HDemand %v, brute force %v", ix, iy, rep.HDemand.At(ix, iy), h)
			}
			if d := math.Abs(rep.VDemand.At(ix, iy) - v); d > 1e-9*maxV {
				t.Fatalf("bin (%d, %d): VDemand %v, brute force %v", ix, iy, rep.VDemand.At(ix, iy), v)
			}
			u := math.Max(h/hCap, v/vCap)
			if math.Abs(u-1) <= 1e-9 {
				nearOne++
				continue
			}
			if u > 1 {
				overflows++
			}
			if (u > 1) != (rep.Utilization.At(ix, iy) > 1) {
				t.Fatalf("bin (%d, %d): utilization %v, brute force %v", ix, iy, rep.Utilization.At(ix, iy), u)
			}
		}
	}
	if rep.Overflows < overflows || rep.Overflows > overflows+nearOne {
		t.Errorf("Overflows %d, brute force %d plus up to %d bins within 1e-9 of 1", rep.Overflows, overflows, nearOne)
	}
	if maxH == 0 || maxV == 0 {
		t.Fatal("the design has no routing demand to compare")
	}
}

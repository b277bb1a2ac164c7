package thermal

import (
	"math"
	"testing"

	"thermplace/internal/geom"
	"thermplace/internal/sparse"
)

// TestCoarseSolveApproximatesExact bounds the estimation error the adaptive
// sweep's margin has to cover: restricting the power map onto a grid of
// half the resolution (the power-conserving aggregation the adaptive sweep
// uses) and solving that smaller grid smooths a hotspot over larger cells,
// which must move the peak rise, but not wildly.
func TestCoarseSolveApproximatesExact(t *testing.T) {
	region := dieRegion(600)
	fine := geom.NewGrid(20, 20, region)
	for iy := 0; iy < 20; iy++ {
		for ix := 0; ix < 20; ix++ {
			fine.Set(ix, iy, 1e-5*float64(1+(ix*7+iy*3)%5))
		}
	}
	// Real power maps put hotspots over several grid cells (a hot unit spans
	// many standard cells); a patch — unlike a one-cell delta spike — keeps
	// its local density visible at the coarse resolution.
	for iy := 6; iy < 9; iy++ {
		for ix := 6; ix < 9; ix++ {
			fine.Set(ix, iy, 0.0012)
		}
	}
	exact, err := Solve(fine, testConfig(20, 20))
	if err != nil {
		t.Fatalf("exact: %v", err)
	}
	coarse := geom.NewGrid(10, 10, region)
	sparse.Restrict(fine.Values(), sparse.Aggregate(20, 20, 1, 10, 10), coarse.Values())
	if math.Abs(coarse.Sum()-fine.Sum()) > 1e-12 {
		t.Fatalf("restriction changed total power: %g -> %g W", fine.Sum(), coarse.Sum())
	}
	est, err := Solve(coarse, testConfig(10, 10))
	if err != nil {
		t.Fatalf("coarse: %v", err)
	}
	if est.PeakRise <= 0 {
		t.Fatal("coarse estimate lost the rise entirely")
	}
	if rel := math.Abs(est.PeakRise-exact.PeakRise) / exact.PeakRise; rel > 0.35 {
		t.Fatalf("coarse peak rise %g vs exact %g: %.0f%% off, estimation mode useless",
			est.PeakRise, exact.PeakRise, rel*100)
	}
}

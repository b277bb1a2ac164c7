package thermal

import (
	"math"
	"testing"

	"thermplace/internal/geom"
	"thermplace/internal/spice"
)

func TestGridDims(t *testing.T) {
	cases := []struct {
		nx, ny, f      int
		wantNX, wantNY int
	}{
		{40, 40, 0, 40, 40},
		{40, 40, 1, 40, 40},
		{40, 40, 4, 10, 10},
		{40, 40, 2, 20, 20},
		{41, 40, 2, 21, 20}, // ceil division
		{40, 40, 30, 2, 2},  // clamped to the 2x2 minimum
		{6, 9, 3, 2, 3},
	}
	for _, c := range cases {
		cfg := testConfig(c.nx, c.ny)
		cfg.CoarseFactor = c.f
		nx, ny := cfg.GridDims()
		if nx != c.wantNX || ny != c.wantNY {
			t.Errorf("GridDims(%dx%d, factor %d) = %dx%d, want %dx%d",
				c.nx, c.ny, c.f, nx, ny, c.wantNX, c.wantNY)
		}
	}
}

func TestCoarseFactorValidates(t *testing.T) {
	cfg := testConfig(8, 8)
	cfg.CoarseFactor = -1
	pm := geom.NewGrid(8, 8, dieRegion(240))
	if _, err := Solve(pm, cfg); err == nil {
		t.Fatal("negative coarse factor must be rejected")
	}
}

// coarseTestPM builds an uneven power map so the restriction is non-trivial.
func coarseTestPM(nx, ny int, region geom.Rect) *geom.Grid {
	pm := geom.NewGrid(nx, ny, region)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			pm.Set(ix, iy, 1e-5*float64(1+(ix*7+iy*3)%5))
		}
	}
	pm.Set(nx/3, ny/3, 0.004) // a hotspot off the grid diagonal
	return pm
}

// TestCoarseSolveIsDownsampledSolve pins the core property of the coarse
// mode: a CoarseFactor solver fed the full-resolution power map produces
// bit-for-bit the result of a plain solver built directly at the coarse
// dims and fed the restricted map. The coarse mode is one model, reachable
// two ways — not an approximation of uncertain provenance.
func TestCoarseSolveIsDownsampledSolve(t *testing.T) {
	region := dieRegion(360)
	fine := coarseTestPM(24, 24, region)

	coarse := testConfig(24, 24)
	coarse.CoarseFactor = 3
	sc, err := NewSolver(coarse)
	if err != nil {
		t.Fatalf("coarse solver: %v", err)
	}
	defer sc.Close()
	got, err := sc.SolveCtx(t.Context(), fine)
	if err != nil {
		t.Fatalf("coarse solve: %v", err)
	}

	// Reference: restrict by hand onto an 8x8 grid and solve at that size.
	restricted := geom.NewGrid(8, 8, region)
	for iy := 0; iy < 24; iy++ {
		for ix := 0; ix < 24; ix++ {
			restricted.Add(ix/3, iy/3, fine.At(ix, iy))
		}
	}
	ref, err := Solve(restricted, testConfig(8, 8))
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}

	if got.Surface.NX != 8 || got.Surface.NY != 8 {
		t.Fatalf("coarse surface is %dx%d, want 8x8", got.Surface.NX, got.Surface.NY)
	}
	if d := maxLayerDelta(t, got, ref); d != 0 {
		t.Fatalf("coarse-mode solve deviates from direct downsampled solve by %g C", d)
	}
	if got.PeakRise != ref.PeakRise {
		t.Fatalf("peak rise %g vs downsampled reference %g", got.PeakRise, ref.PeakRise)
	}

	// A pre-binned coarse map must be accepted and give the same answer.
	sc2, err := NewSolver(coarse)
	if err != nil {
		t.Fatalf("second coarse solver: %v", err)
	}
	defer sc2.Close()
	got2, err := sc2.SolveCtx(t.Context(), restricted)
	if err != nil {
		t.Fatalf("pre-binned solve: %v", err)
	}
	if d := maxLayerDelta(t, got, got2); d != 0 {
		t.Fatalf("pre-binned and restricted solves differ by %g C", d)
	}

	// Any other resolution is still a hard error.
	if _, err := sc.SolveCtx(t.Context(), geom.NewGrid(12, 12, region)); err == nil {
		t.Fatal("mismatched power map must be rejected")
	}
}

// TestCoarseSolveMatchesSpiceOracle checks that the oracle path applies the
// same restriction, so fast path and SPICE stay cross-validatable at low
// fidelity.
func TestCoarseSolveMatchesSpiceOracle(t *testing.T) {
	region := dieRegion(240)
	fine := coarseTestPM(12, 12, region)
	cfg := testConfig(12, 12)
	cfg.CoarseFactor = 3
	cfg.Tolerance = 1e-12

	fast, err := Solve(fine, cfg)
	if err != nil {
		t.Fatalf("fast: %v", err)
	}
	ref, err := solveSpice(fine, cfg, spice.MethodDense)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if d := maxLayerDelta(t, fast, ref); d > 1e-6 {
		t.Fatalf("coarse fast path deviates from dense oracle by %g C", d)
	}
}

// TestCoarseSolveApproximatesExact bounds the estimation error the adaptive
// sweep's margin has to cover: smoothing a hotspot over larger cells must
// move the peak rise, but not wildly.
func TestCoarseSolveApproximatesExact(t *testing.T) {
	region := dieRegion(600)
	fine := coarseTestPM(20, 20, region)
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
	cfg := testConfig(20, 20)
	cfg.CoarseFactor = 2
	est, err := Solve(fine, cfg)
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

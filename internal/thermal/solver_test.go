package thermal

import (
	"math"
	"testing"

	"thermplace/internal/geom"
	"thermplace/internal/spice"
)

// maxLayerDelta returns the largest absolute per-cell temperature difference
// across all layers of two results.
func maxLayerDelta(t *testing.T, a, b *Result) float64 {
	t.Helper()
	if len(a.Layers) != len(b.Layers) {
		t.Fatalf("layer count mismatch: %d vs %d", len(a.Layers), len(b.Layers))
	}
	worst := 0.0
	for l := range a.Layers {
		ga, gb := a.Layers[l], b.Layers[l]
		for iy := 0; iy < ga.NY; iy++ {
			for ix := 0; ix < ga.NX; ix++ {
				if d := math.Abs(ga.At(ix, iy) - gb.At(ix, iy)); d > worst {
					worst = d
				}
			}
		}
	}
	return worst
}

func TestFastPathSelection(t *testing.T) {
	cfg := DefaultConfig()
	if !cfg.FastPath() {
		t.Fatal("default config must take the fast path")
	}
	cfg.UseSpice = true
	if cfg.FastPath() {
		t.Fatal("UseSpice must force the oracle path")
	}
	cfg.UseSpice = false
	cfg.Solver = spice.MethodDense
	if cfg.FastPath() {
		t.Fatal("non-CG methods must go through the spice path")
	}
}

func TestConfigEqual(t *testing.T) {
	a := DefaultConfig()
	b := DefaultConfig()
	if !a.Equal(b) {
		t.Fatal("identical configs must compare equal")
	}
	b.Stack = DefaultStack()
	b.Stack[3].Conductivity *= 2
	if a.Equal(b) {
		t.Fatal("stack change must be detected")
	}
	c := DefaultConfig()
	c.NX = 41
	if a.Equal(c) {
		t.Fatal("grid change must be detected")
	}
	d := DefaultConfig()
	d.UseSpice = true
	if a.Equal(d) {
		t.Fatal("solver-path change must be detected")
	}
}

func TestParsePrecond(t *testing.T) {
	for _, tc := range []struct {
		name    string
		want    PrecondKind
		wantErr bool
	}{
		{"mg", PrecondMG, false},
		{"jacobi", PrecondJacobi, false},
		{"auto", 0, true},
		{"", 0, true},
		{"MG", 0, true},
	} {
		got, err := ParsePrecond(tc.name)
		if (err != nil) != tc.wantErr || got != tc.want {
			t.Errorf("ParsePrecond(%q) = %v, %v; want %v, error %v", tc.name, got, err, tc.want, tc.wantErr)
		}
	}
	var zero Config
	if zero.Precond != PrecondMG {
		t.Error("the zero Config must select the multigrid preconditioner")
	}
}

// TestSolverMatchesDenseOracle checks the fast path against the dense
// Cholesky oracle on small grids, where the dense solve is exact to machine
// precision.
func TestSolverMatchesDenseOracle(t *testing.T) {
	for _, size := range []int{4, 6, 9} {
		cfg := testConfig(size, size)
		cfg.Tolerance = 1e-12
		pm := geom.NewGrid(size, size, dieRegion(30*float64(size)))
		pm.Set(1, 1, 0.004)
		pm.Set(size-2, size-2, 0.002)
		pm.Set(size/2, size/2, 0.001)

		fast, err := Solve(pm, cfg)
		if err != nil {
			t.Fatalf("%dx%d fast: %v", size, size, err)
		}
		oracle := cfg
		oracle.UseSpice = true
		oracle.Solver = spice.MethodDense
		ref, err := Solve(pm, oracle)
		if err != nil {
			t.Fatalf("%dx%d dense oracle: %v", size, size, err)
		}
		if d := maxLayerDelta(t, fast, ref); d > 1e-6 {
			t.Fatalf("%dx%d: fast path deviates from dense oracle by %g C", size, size, d)
		}
		if math.Abs(fast.PeakRise-ref.PeakRise) > 1e-6 {
			t.Fatalf("%dx%d: peak rise %g vs oracle %g", size, size, fast.PeakRise, ref.PeakRise)
		}
	}
}

// TestSolverMatchesSpiceCGOnPaperGrid checks the fast path against the
// legacy spice CG path on the full 40x40x9 paper grid.
func TestSolverMatchesSpiceCGOnPaperGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full 40x40x9 oracle comparison skipped in -short mode")
	}
	cfg := DefaultConfig()
	cfg.Tolerance = 1e-11
	pm := geom.NewGrid(cfg.NX, cfg.NY, dieRegion(360))
	pm.Fill(0.012 / float64(cfg.NX*cfg.NY))
	for iy := 8; iy < 16; iy++ {
		for ix := 8; ix < 16; ix++ {
			pm.Add(ix, iy, 0.010/64)
		}
	}
	fast, err := Solve(pm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle := cfg
	oracle.UseSpice = true
	ref, err := Solve(pm, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxLayerDelta(t, fast, ref); d > 1e-6 {
		t.Fatalf("fast path deviates from spice CG oracle by %g C on the paper grid", d)
	}
	t.Logf("paper grid: fast %d iterations, spice %d iterations, max delta %g C",
		fast.Iterations, ref.Iterations, maxLayerDelta(t, fast, ref))
}

// TestMGMatchesJacobiAndSpiceOracle is the three-way equivalence check on
// the full paper grid: the multigrid-preconditioned fast path, the
// Jacobi-preconditioned fast path and the SPICE-circuit oracle must agree
// to 1e-6 C on every layer, and multigrid must cut the cold-start
// iteration count at least 3x (the measured reduction is ~11x, under 15
// iterations).
func TestMGMatchesJacobiAndSpiceOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full 40x40x9 oracle comparison skipped in -short mode")
	}
	cfg := DefaultConfig()
	cfg.Tolerance = 1e-11
	pm := geom.NewGrid(cfg.NX, cfg.NY, dieRegion(360))
	pm.Fill(0.012 / float64(cfg.NX*cfg.NY))
	for iy := 8; iy < 16; iy++ {
		for ix := 8; ix < 16; ix++ {
			pm.Add(ix, iy, 0.010/64)
		}
	}

	mgCfg := cfg
	mgCfg.Precond = PrecondMG
	mgRes, err := Solve(pm, mgCfg)
	if err != nil {
		t.Fatalf("MG-PCG: %v", err)
	}
	jacCfg := cfg
	jacCfg.Precond = PrecondJacobi
	jacRes, err := Solve(pm, jacCfg)
	if err != nil {
		t.Fatalf("Jacobi-PCG: %v", err)
	}
	oracle := cfg
	oracle.UseSpice = true
	ref, err := Solve(pm, oracle)
	if err != nil {
		t.Fatalf("spice oracle: %v", err)
	}

	if d := maxLayerDelta(t, mgRes, jacRes); d > 1e-6 {
		t.Fatalf("MG-PCG deviates from Jacobi-PCG by %g C", d)
	}
	if d := maxLayerDelta(t, mgRes, ref); d > 1e-6 {
		t.Fatalf("MG-PCG deviates from the spice oracle by %g C", d)
	}
	if mgRes.Iterations*3 > jacRes.Iterations {
		t.Errorf("MG-PCG took %d iterations vs Jacobi's %d: want at least 3x fewer",
			mgRes.Iterations, jacRes.Iterations)
	}
	t.Logf("paper grid (tol 1e-11): MG %d iterations, Jacobi %d, MG-vs-oracle delta %g C",
		mgRes.Iterations, jacRes.Iterations, maxLayerDelta(t, mgRes, ref))

	// At the production tolerance (1e-9) the cold start must stay under 15
	// iterations.
	defCfg := DefaultConfig()
	defCfg.Precond = PrecondMG
	defRes, err := Solve(pm, defCfg)
	if err != nil {
		t.Fatal(err)
	}
	if defRes.Iterations >= 15 {
		t.Errorf("MG-PCG cold start took %d iterations at default tolerance, want < 15", defRes.Iterations)
	}
}

// TestSurfaceOnlySkipsNonPowerLayers checks the SurfaceOnly flag on both
// solver paths: only the power layer is materialized and its content is
// identical to a full solve.
func TestSurfaceOnlySkipsNonPowerLayers(t *testing.T) {
	cfg := testConfig(10, 10)
	pm := geom.NewGrid(10, 10, dieRegion(250))
	pm.Set(4, 4, 0.004)
	full, err := Solve(pm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	surfCfg := cfg
	surfCfg.SurfaceOnly = true
	surf, err := Solve(pm, surfCfg)
	if err != nil {
		t.Fatal(err)
	}
	powerLayer := cfg.Stack.PowerLayer()
	if len(surf.Layers) != len(cfg.Stack) {
		t.Fatalf("Layers length %d, want %d", len(surf.Layers), len(cfg.Stack))
	}
	for l, g := range surf.Layers {
		if l == powerLayer {
			if g == nil {
				t.Fatal("power layer must be materialized")
			}
			continue
		}
		if g != nil {
			t.Fatalf("non-power layer %d materialized despite SurfaceOnly", l)
		}
	}
	if surf.Surface != surf.Layers[powerLayer] {
		t.Fatal("Surface must alias the power layer")
	}
	for iy := 0; iy < 10; iy++ {
		for ix := 0; ix < 10; ix++ {
			if surf.Surface.At(ix, iy) != full.Surface.At(ix, iy) {
				t.Fatalf("surface (%d,%d) differs: %g vs %g", ix, iy,
					surf.Surface.At(ix, iy), full.Surface.At(ix, iy))
			}
		}
	}

	// The SPICE path honors the flag the same way.
	spiceCfg := surfCfg
	spiceCfg.UseSpice = true
	sres, err := Solve(pm, spiceCfg)
	if err != nil {
		t.Fatal(err)
	}
	for l, g := range sres.Layers {
		if (g != nil) != (l == powerLayer) {
			t.Fatalf("spice path layer %d materialization wrong", l)
		}
	}
}

// TestSolverSeedState checks that seeding the warm-start field makes the
// solve independent of the solver's history: a pooled solver seeded with a
// recorded field reproduces another solver's result bit for bit.
func TestSolverSeedState(t *testing.T) {
	cfg := testConfig(12, 12)
	pmA := geom.NewGrid(12, 12, dieRegion(300))
	pmA.Set(3, 3, 0.005)
	pmB := geom.NewGrid(12, 12, dieRegion(300))
	pmB.Set(8, 8, 0.004)

	// Reference: solve A, record the state, solve B.
	s1, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Solve(pmA); err != nil {
		t.Fatal(err)
	}
	seed := s1.State()
	if seed == nil {
		t.Fatal("State must be non-nil after a solve")
	}
	want, err := s1.Solve(pmB)
	if err != nil {
		t.Fatal(err)
	}

	// A second solver with a different history, seeded before solving B,
	// must reproduce the result exactly.
	s2, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pmOther := geom.NewGrid(12, 12, dieRegion(300))
	pmOther.Set(6, 1, 0.009)
	if _, err := s2.Solve(pmOther); err != nil {
		t.Fatal(err)
	}
	if err := s2.SeedState(seed); err != nil {
		t.Fatal(err)
	}
	got, err := s2.Solve(pmB)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxLayerDelta(t, got, want); d != 0 {
		t.Fatalf("seeded solve differs from reference by %g C (want bit-identical)", d)
	}
	if got.Iterations != want.Iterations {
		t.Fatalf("seeded solve took %d iterations, reference %d", got.Iterations, want.Iterations)
	}

	if err := s2.SeedState(make([]float64, 3)); err == nil {
		t.Fatal("mismatched seed length must be rejected")
	}
	if s, _ := NewSolver(cfg); s.State() != nil {
		t.Fatal("State before any solve must be nil")
	}
}

// TestSolverReuseAndWarmStart re-solves with one Solver across changing
// power maps and die regions and checks every answer against a fresh
// cold-start solver. It pins the Jacobi preconditioner: with multigrid the
// small test grid converges in one iteration cold or warm, so the
// iteration-count comparison would be vacuous.
func TestSolverReuseAndWarmStart(t *testing.T) {
	cfg := testConfig(12, 12)
	cfg.Tolerance = 1e-11
	cfg.Precond = PrecondJacobi
	s, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}

	coldIters := 0
	for step, tc := range []struct {
		side  float64
		power float64
	}{
		{300, 0.010},
		{300, 0.011}, // same geometry, slightly different power
		{330, 0.011}, // grown die: matrix values must refresh
		{300, 0.010}, // back to the first geometry
	} {
		pm := geom.NewGrid(12, 12, dieRegion(tc.side))
		pm.Fill(tc.power / 4 / 144)
		for iy := 4; iy < 8; iy++ {
			for ix := 4; ix < 8; ix++ {
				pm.Add(ix, iy, tc.power/2/16)
			}
		}
		got, err := s.Solve(pm)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		fresh, err := NewSolver(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Solve(pm)
		if err != nil {
			t.Fatalf("step %d fresh: %v", step, err)
		}
		if d := maxLayerDelta(t, got, want); d > 1e-6 {
			t.Fatalf("step %d: reused solver deviates from fresh solver by %g C", step, d)
		}
		if step == 0 {
			coldIters = got.Iterations
		} else if tc.side == 300 && got.Iterations >= coldIters {
			t.Errorf("step %d: warm start took %d iterations, cold start %d", step, got.Iterations, coldIters)
		}
	}
}

// TestSolverWarmStartIdenticalSolveIsFree re-solving the identical problem
// must converge without CG iterations.
func TestSolverWarmStartIdenticalSolveIsFree(t *testing.T) {
	cfg := testConfig(10, 10)
	s, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pm := geom.NewGrid(10, 10, dieRegion(250))
	pm.Set(5, 5, 0.006)
	first, err := s.Solve(pm)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Solve(pm)
	if err != nil {
		t.Fatal(err)
	}
	if second.Iterations != 0 {
		t.Fatalf("identical re-solve took %d iterations, want 0", second.Iterations)
	}
	if d := maxLayerDelta(t, first, second); d != 0 {
		t.Fatalf("identical re-solve changed the answer by %g", d)
	}
	if first.Iterations == 0 {
		t.Fatal("first solve should have done iterative work")
	}
}

func TestSolverRejectsMismatchedPowerMap(t *testing.T) {
	s, err := NewSolver(testConfig(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(geom.NewGrid(7, 8, dieRegion(100))); err == nil {
		t.Fatal("mismatched power-map resolution must fail")
	}
}

func TestNewSolverValidates(t *testing.T) {
	cfg := testConfig(4, 4)
	cfg.Stack = nil
	if _, err := NewSolver(cfg); err == nil {
		t.Fatal("invalid config must be rejected")
	}
}

// TestSolverZeroPower mirrors TestZeroPowerStaysAtAmbient on the reusable
// solver, including after a powered solve (the warm-start state must not
// leak into the answer).
func TestSolverZeroPower(t *testing.T) {
	cfg := testConfig(6, 6)
	s, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hot := geom.NewGrid(6, 6, dieRegion(150))
	hot.Set(3, 3, 0.004)
	if _, err := s.Solve(hot); err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(geom.NewGrid(6, 6, dieRegion(150)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PeakRise) > 1e-7 {
		t.Fatalf("zero power after a hot solve must return to ambient, peak rise %g", res.PeakRise)
	}
}

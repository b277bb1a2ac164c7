package thermal

import (
	"math"
	"slices"
	"testing"

	"thermplace/internal/geom"
	"thermplace/internal/spice"
)

// newSolver builds a solver for cfg, closed when the test ends.
func newSolver(t *testing.T, cfg Config) *Solver {
	t.Helper()
	s, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// solveState solves pm on s and returns the result together with the full
// temperature field, every layer in solver node order.
func solveState(t *testing.T, s *Solver, pm *geom.Grid) (*Result, []float64) {
	t.Helper()
	res, err := s.Solve(pm)
	if err != nil {
		t.Fatal(err)
	}
	return res, s.State()
}

// spiceField is the every-layer oracle: it solves the SPICE network of pm
// under cfg by the given method and returns every node temperature, mapped
// by nodeName into solver node order.
func spiceField(t *testing.T, pm *geom.Grid, cfg Config, method spice.Method) []float64 {
	t.Helper()
	c, err := BuildNetwork(pm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := c.Solve(spice.SolveOptions{Method: method, Tolerance: cfg.Tolerance})
	if err != nil {
		t.Fatal(err)
	}
	field := make([]float64, 0, cfg.NX*cfg.NY*len(cfg.Stack))
	for l := range cfg.Stack {
		for iy := 0; iy < cfg.NY; iy++ {
			for ix := 0; ix < cfg.NX; ix++ {
				field = append(field, sol.Voltages[nodeName(l, ix, iy)])
			}
		}
	}
	return field
}

// maxFieldDelta returns the largest absolute per-node difference of two
// temperature fields.
func maxFieldDelta(t *testing.T, a, b []float64) float64 {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("field size mismatch: %d vs %d", len(a), len(b))
	}
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// jacobiSolver returns a fresh solver degraded to the Jacobi preconditioner,
// the state a multigrid setup failure leaves it in, for the tests that need
// Jacobi-PCG's iteration counts.
func jacobiSolver(t *testing.T, cfg Config) *Solver {
	t.Helper()
	s := newSolver(t, cfg)
	s.dropMG()
	return s
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

		fast, field := solveState(t, newSolver(t, cfg), pm)
		if d := maxFieldDelta(t, field, spiceField(t, pm, cfg, spice.MethodDense)); d > 1e-6 {
			t.Fatalf("%dx%d: fast path deviates from dense oracle by %g C", size, size, d)
		}
		ref, err := SolveSpice(pm, cfg, spice.MethodDense)
		if err != nil {
			t.Fatalf("%dx%d dense oracle: %v", size, size, err)
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
	fast, field := solveState(t, newSolver(t, cfg), pm)
	d := maxFieldDelta(t, field, spiceField(t, pm, cfg, spice.MethodCG))
	if d > 1e-6 {
		t.Fatalf("fast path deviates from spice CG oracle by %g C on the paper grid", d)
	}
	t.Logf("paper grid: fast %d iterations, max delta %g C", fast.Iterations, d)
}

// TestMGMatchesJacobiAndSpiceOracle is the three-way equivalence check on
// the full paper grid: the multigrid preconditioned fast path, the
// Jacobi preconditioned fast path and the SPICE-circuit oracle must agree
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

	mgRes, mgField := solveState(t, newSolver(t, cfg), pm)
	jacRes, jacField := solveState(t, jacobiSolver(t, cfg), pm)
	ref := spiceField(t, pm, cfg, spice.MethodCG)

	if d := maxFieldDelta(t, mgField, jacField); d > 1e-6 {
		t.Fatalf("MG-PCG deviates from Jacobi-PCG by %g C", d)
	}
	dRef := maxFieldDelta(t, mgField, ref)
	if dRef > 1e-6 {
		t.Fatalf("MG-PCG deviates from the spice oracle by %g C", dRef)
	}
	if mgRes.Iterations*3 > jacRes.Iterations {
		t.Errorf("MG-PCG took %d iterations vs Jacobi's %d: want at least 3x fewer",
			mgRes.Iterations, jacRes.Iterations)
	}
	t.Logf("paper grid (tol 1e-11): MG %d iterations, Jacobi %d, MG-vs-oracle delta %g C",
		mgRes.Iterations, jacRes.Iterations, dRef)

	// At the production tolerance (1e-9) the cold start must stay under 15
	// iterations.
	defRes, err := Solve(pm, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if defRes.Iterations >= 15 {
		t.Errorf("MG-PCG cold start took %d iterations at default tolerance, want < 15", defRes.Iterations)
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
	want, wantField := solveState(t, s1, pmB)

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
	got, gotField := solveState(t, s2, pmB)
	if !slices.Equal(gotField, wantField) {
		t.Fatalf("seeded solve differs from reference by %g C (want bit-identical)", maxFieldDelta(t, gotField, wantField))
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
// cold-start solver. It runs on Jacobi (jacobiSolver): with multigrid the
// small test grid converges in one iteration cold or warm, so the
// iteration-count comparison would be vacuous.
func TestSolverReuseAndWarmStart(t *testing.T) {
	cfg := testConfig(12, 12)
	cfg.Tolerance = 1e-11
	s := jacobiSolver(t, cfg)

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
		got, gotField := solveState(t, s, pm)
		_, wantField := solveState(t, jacobiSolver(t, cfg), pm)
		if d := maxFieldDelta(t, gotField, wantField); d > 1e-6 {
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
	first, firstField := solveState(t, s, pm)
	second, secondField := solveState(t, s, pm)
	if second.Iterations != 0 {
		t.Fatalf("identical re-solve took %d iterations, want 0", second.Iterations)
	}
	if !slices.Equal(firstField, secondField) {
		t.Fatalf("identical re-solve changed the answer by %g", maxFieldDelta(t, firstField, secondField))
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

package thermal

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"thermplace/internal/fault"
	"thermplace/internal/geom"
)

// faultTestPower builds the power map used by the robustness tests.
func faultTestPower(cfg Config) *geom.Grid {
	pm := geom.NewGrid(cfg.NX, cfg.NY, geom.Rect{Xlo: 0, Ylo: 0, Xhi: 360, Yhi: 360})
	pm.Fill(0.02 / float64(cfg.NX*cfg.NY))
	// A concentrated hotspot keeps the field non-trivial.
	pm.Values()[cfg.NX/2*cfg.NX+cfg.NX/2] += 0.005
	return pm
}

// surfaceMaxDiff returns the largest absolute surface-temperature difference
// between two results.
func surfaceMaxDiff(a, b *Result) float64 {
	av, bv := a.Surface.Values(), b.Surface.Values()
	m := 0.0
	for i := range av {
		if d := math.Abs(av[i] - bv[i]); d > m {
			m = d
		}
	}
	return m
}

// referenceSolve solves the same system on a clean multigrid solver, as
// the oracle for the degraded results.
func referenceSolve(t *testing.T, cfg Config, pm *geom.Grid) *Result {
	t.Helper()
	cfg.Stats, cfg.Inject = nil, nil
	res, err := Solve(pm, cfg)
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	return res
}

// TestSolverDegradesOnMGSetupFailure asserts the graceful-degradation path
// for a multigrid setup failure: the solve completes on the Jacobi fallback,
// within tolerance of a clean multigrid solve, and the event is counted.
func TestSolverDegradesOnMGSetupFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stats = &fault.Stats{}
	cfg.Inject = &fault.Injector{FailMGSetup: true}
	pm := faultTestPower(cfg)

	s, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.mg == nil {
		t.Fatal("solver did not build a multigrid hierarchy to degrade from")
	}
	res, err := s.Solve(pm)
	if err != nil {
		t.Fatalf("degraded solve failed instead of falling back: %v", err)
	}
	if s.mg != nil {
		t.Fatal("solver kept the multigrid preconditioner after a setup failure")
	}
	snap := cfg.Stats.Snapshot()
	if snap.MGSetupFailures == 0 {
		t.Fatal("MG setup failure not recorded in fault.Stats")
	}
	want := referenceSolve(t, cfg, pm)
	if d := surfaceMaxDiff(res, want); d > 1e-6 {
		t.Fatalf("degraded solve differs from the multigrid reference by %g C (> 1e-6)", d)
	}

	// The degradation is permanent but harmless: the next solve still works.
	if _, err := s.Solve(pm); err != nil {
		t.Fatalf("solve after degradation: %v", err)
	}
}

// TestSolverRetriesOnInjectedNonConvergence asserts the retry path: an
// injected non-convergence of the multigrid preconditioned solve is retried
// once on Jacobi with a raised budget, succeeds, and is counted.
func TestSolverRetriesOnInjectedNonConvergence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stats = &fault.Stats{}
	cfg.Inject = &fault.Injector{FailCGSolveN: 1}
	pm := faultTestPower(cfg)

	s, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Solve(pm)
	if err != nil {
		t.Fatalf("retry path failed: %v", err)
	}
	snap := cfg.Stats.Snapshot()
	if snap.SolveRetries != 1 {
		t.Fatalf("SolveRetries = %d, want 1", snap.SolveRetries)
	}
	want := referenceSolve(t, cfg, pm)
	if d := surfaceMaxDiff(res, want); d > 1e-6 {
		t.Fatalf("retried solve differs from the multigrid reference by %g C (> 1e-6)", d)
	}

	// Solve 2 is not probed: the multigrid preconditioner is restored and
	// the solve is clean.
	if _, err := s.Solve(pm); err != nil {
		t.Fatalf("solve after retry: %v", err)
	}
	if s.mg == nil {
		t.Fatal("retry permanently dropped the multigrid preconditioner")
	}
	if got := cfg.Stats.Snapshot().SolveRetries; got != 1 {
		t.Fatalf("clean solve was counted as a retry: SolveRetries = %d", got)
	}
}

// TestSolverSurfacesNotConverged pins the typed error when both the
// preconditioned attempt and the Jacobi retry fail: the caller gets an
// extractable *fault.ErrNotConverged, and the solver recovers afterwards.
func TestSolverSurfacesNotConverged(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stats = &fault.Stats{}
	cfg.Inject = &fault.Injector{FailCGSolveN: 1, FailRetry: true}
	pm := faultTestPower(cfg)

	s, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, serr := s.Solve(pm)
	if serr == nil {
		t.Fatal("doubly-failed solve reported success")
	}
	var nc *fault.ErrNotConverged
	if !errors.As(serr, &nc) {
		t.Fatalf("non-convergence not extractable: %v", serr)
	}
	if nc.Iters <= 0 || !math.IsInf(nc.Residual, 1) {
		t.Fatalf("injected ErrNotConverged fields lost: iters=%d residual=%g", nc.Iters, nc.Residual)
	}
	if got := cfg.Stats.Snapshot().SolveRetries; got != 1 {
		t.Fatalf("SolveRetries = %d, want 1", got)
	}

	// The failure does not poison the solver: solve 2 is clean.
	if _, err := s.Solve(pm); err != nil {
		t.Fatalf("solve after reported non-convergence: %v", err)
	}
}

// TestSolverPanicContained asserts that an injected panic inside a pool task
// surfaces as a located typed error, not a crash, and that the solver, its
// pool and the goroutine count all survive.
func TestSolverPanicContained(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stats = &fault.Stats{}
	cfg.Inject = &fault.Injector{PanicCGSolveN: 1}
	pm := faultTestPower(cfg)

	base := runtime.NumGoroutine()
	s, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, serr := s.Solve(pm)
	var pe *fault.ErrPanic
	if !errors.As(serr, &pe) {
		t.Fatalf("injected panic not contained as *fault.ErrPanic: %v", serr)
	}
	if pe.Where == "" || len(pe.Stack) == 0 {
		t.Fatalf("contained panic lost its location: %+v", pe)
	}
	if cfg.Stats.Snapshot().PanicsContained == 0 {
		t.Fatal("contained panic not recorded in fault.Stats")
	}

	// The solver keeps working after the contained panic.
	if _, err := s.Solve(pm); err != nil {
		t.Fatalf("solve after contained panic: %v", err)
	}
	s.Close()
	waitGoroutines(t, base)
}

// TestSolverCancelMidSolve asserts cancellation of a stalled solve: the
// injected stall parks the solve until the context fires, the caller gets a
// fault.ErrCanceled-matching error, the cancellation is counted, and no
// goroutines leak after Close.
func TestSolverCancelMidSolve(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stats = &fault.Stats{}
	cfg.Inject = &fault.Injector{StallCGSolveN: 1}
	pm := faultTestPower(cfg)

	base := runtime.NumGoroutine()
	s, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(20*time.Millisecond, cancel)
	defer timer.Stop()
	_, serr := s.SolveCtx(ctx, pm)
	if !errors.Is(serr, fault.ErrCanceled) {
		t.Fatalf("canceled solve did not report fault.ErrCanceled: %v", serr)
	}
	if cfg.Stats.Snapshot().Canceled == 0 {
		t.Fatal("cancellation not recorded in fault.Stats")
	}

	// Solve 2 is not stalled and runs with a live context.
	if _, err := s.SolveCtx(context.Background(), pm); err != nil {
		t.Fatalf("solve after cancellation: %v", err)
	}
	s.Close()
	waitGoroutines(t, base)
}

// TestSolveCtxBitIdentical asserts that a context that never fires changes
// nothing: every float of the result matches the plain Solve path exactly.
func TestSolveCtxBitIdentical(t *testing.T) {
	cfg := DefaultConfig()
	pm := faultTestPower(cfg)

	a, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for round := 0; round < 2; round++ {
		ra, err := a.Solve(pm)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.SolveCtx(ctx, pm)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Iterations != rb.Iterations || ra.SolverResidual != rb.SolverResidual {
			t.Fatalf("round %d: iteration trace differs: %d/%g vs %d/%g",
				round, ra.Iterations, ra.SolverResidual, rb.Iterations, rb.SolverResidual)
		}
		if d := surfaceMaxDiff(ra, rb); d != 0 {
			t.Fatalf("round %d: SolveCtx differs from Solve by %g C", round, d)
		}
	}
}

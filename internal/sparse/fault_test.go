package sparse

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"thermplace/internal/fault"
)

// spdStencil returns a strictly diagonally dominant (hence SPD) 7-point
// system with a deterministic right-hand side.
func spdStencil(nx, ny, nl int) (*SymCSR, []float64) {
	m := NewStencil7(nx, ny, nl)
	for i := range m.Diag {
		m.Diag[i] = 8
	}
	for i := range m.Val {
		m.Val[i] = -1
	}
	b := make([]float64, m.N)
	for i := range b {
		b[i] = float64(i%13) + 1
	}
	return m, b
}

// TestNewMGMalformedStencil is the regression for the former coarse-operator
// panic (buildCoarsening): a matrix whose adjacency does not match the
// claimed grid geometry must surface as a typed fault.ErrSetup, not crash.
func TestNewMGMalformedStencil(t *testing.T) {
	// A 4x4x4 stencil has 64 unknowns, so claiming it is an 8x2x4 grid
	// passes the size check but breaks the adjacency the coarsening relies
	// on.
	// CoarsestN below 64 forces the coarsening (the default 128 would solve
	// 64 unknowns directly and never look at the adjacency).
	m, _ := spdStencil(4, 4, 4)
	mg, err := NewMG(m, 8, 2, 4, MGOptions{CoarsestN: 16})
	if err == nil {
		t.Fatalf("NewMG accepted a malformed stencil: %v levels", mg.Levels())
	}
	var se *fault.ErrSetup
	if !errors.As(err, &se) {
		t.Fatalf("malformed stencil error not a fault.ErrSetup: %v", err)
	}
	if se.Stage != "coarsen" {
		t.Fatalf("wrong setup stage %q: %v", se.Stage, err)
	}

	// The size mismatch rejection is typed too.
	if _, err := NewMG(m, 5, 5, 5, MGOptions{}); err == nil || !errors.As(err, &se) {
		t.Fatalf("grid-mismatch error not a fault.ErrSetup: %v", err)
	}
}

// TestCGNotConvergedTyped pins the fields of the typed non-convergence
// error: the iteration count equals the exhausted budget and the residual
// matches the returned residual.
func TestCGNotConvergedTyped(t *testing.T) {
	m, b := spdStencil(12, 12, 3)
	cg := NewCG(m, CGOptions{Tolerance: 1e-12, MaxIterations: 2, Workers: 1})
	x := make([]float64, m.N)
	iters, residual, err := cg.Solve(b, x)
	if err == nil {
		t.Fatalf("2-iteration budget unexpectedly converged (residual %g)", residual)
	}
	var nc *fault.ErrNotConverged
	if !errors.As(err, &nc) {
		t.Fatalf("non-convergence not typed: %v", err)
	}
	if nc.Iters != 2 || nc.Iters != iters {
		t.Fatalf("ErrNotConverged.Iters = %d, want %d (returned %d)", nc.Iters, 2, iters)
	}
	if nc.Residual != residual || !(nc.Residual > 1e-12) {
		t.Fatalf("ErrNotConverged.Residual = %g, returned %g", nc.Residual, residual)
	}
}

// TestCGCancelMidSolve asserts that a canceled context aborts the iteration
// with a typed error, the solver stays usable, and no goroutines leak
// (cancel mid-Solve + Close after cancel).
func TestCGCancelMidSolve(t *testing.T) {
	m, b := spdStencil(24, 24, 4)
	base := runtime.NumGoroutine()
	cg := NewCG(m, CGOptions{Workers: 4, Tolerance: 1e-12})
	x := make([]float64, m.N)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // fires on the first per-iteration check
	if _, _, err := cg.SolveCtx(ctx, b, x); !errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("canceled solve did not report fault.ErrCanceled: %v", err)
	}

	// A deadline-based cancel additionally matches context.DeadlineExceeded.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, _, err := cg.SolveCtx(dctx, b, x); !errors.Is(err, fault.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline solve did not report fault.ErrCanceled and context.DeadlineExceeded: %v", err)
	}

	// The solver still solves after an abort.
	for i := range x {
		x[i] = 0
	}
	if _, _, err := cg.SolveCtx(context.Background(), b, x); err != nil {
		t.Fatalf("solve after cancel: %v", err)
	}
	cg.Close()
	waitGoroutines(t, base)
}

// TestMGApplyCtxCancel asserts the per-cycle cancellation check of the
// multigrid preconditioner.
func TestMGApplyCtxCancel(t *testing.T) {
	m, b := spdStencil(16, 16, 3)
	mg, err := NewMG(m, 16, 16, 3, MGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mg.Refresh(); err != nil {
		t.Fatal(err)
	}
	z := make([]float64, m.N)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := mg.ApplyCtx(ctx, b, z); !errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("canceled ApplyCtx did not report fault.ErrCanceled: %v", err)
	}
	// With a live context the result matches Apply exactly.
	want := make([]float64, m.N)
	mg.Apply(b, want)
	live, liveCancel := context.WithCancel(context.Background())
	defer liveCancel()
	if err := mg.ApplyCtx(live, b, z); err != nil {
		t.Fatal(err)
	}
	for i := range z {
		if z[i] != want[i] {
			t.Fatalf("ApplyCtx differs from Apply at %d: %g vs %g", i, z[i], want[i])
		}
	}
}

// TestPoolPanicContained asserts that a panic inside a pool task does not
// kill the worker goroutine, deadlock the sibling tasks or leak goroutines:
// it is rethrown on the caller as a located *fault.ErrPanic and the pool
// stays usable.
func TestPoolPanicContained(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPool(3)
	if !p.Parallel(3) {
		t.Fatal("pool refused parallel run")
	}

	caught := func() (pe *fault.ErrPanic) {
		defer func() {
			if v := recover(); v != nil {
				pe = fault.Recovered("test caller", v)
			}
		}()
		p.Run(3, func(w int) float64 {
			if w == 1 {
				panic("injected task panic")
			}
			return float64(w)
		})
		return nil
	}()
	if caught == nil {
		t.Fatal("worker panic was swallowed")
	}
	if caught.Where != "sparse.Pool worker 1" {
		t.Fatalf("panic not located at the crashing worker: %q", caught.Where)
	}
	if caught.Value != "injected task panic" {
		t.Fatalf("panic value lost: %v", caught.Value)
	}

	// The pool still runs the next operation normally.
	sum := p.Run(3, func(w int) float64 { return float64(w + 1) })
	if sum != 6 {
		t.Fatalf("pool broken after contained panic: sum = %g, want 6", sum)
	}
	p.Close()
	waitGoroutines(t, base)
}

// TestCGPanicContained asserts that a panicking preconditioner surfaces as a
// typed error from SolveCtx, not a crash, and the CG keeps working.
func TestCGPanicContained(t *testing.T) {
	m, b := spdStencil(12, 12, 3)
	cg := NewCG(m, CGOptions{Workers: 1})
	cg.SetPrecond(panicPrecond{})
	x := make([]float64, m.N)
	_, _, err := cg.Solve(b, x)
	var pe *fault.ErrPanic
	if !errors.As(err, &pe) {
		t.Fatalf("preconditioner panic not contained: %v", err)
	}
	cg.SetPrecond(nil)
	for i := range x {
		x[i] = 0
	}
	if _, _, err := cg.Solve(b, x); err != nil {
		t.Fatalf("solve after contained panic: %v", err)
	}
}

type panicPrecond struct{}

func (panicPrecond) Apply(r, z []float64) { panic("injected preconditioner panic") }

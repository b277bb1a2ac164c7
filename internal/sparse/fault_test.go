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
	// An 8x8x4 stencil has 256 unknowns, so claiming it is a 16x4x4 grid
	// passes the size check but breaks the adjacency the coarsening relies
	// on; 256 unknowns is above the direct-solve size, so the hierarchy
	// coarsens and looks at the adjacency.
	m, _ := spdStencil(8, 8, 4)
	mg, err := NewMG(m, 16, 4, 4, NewPool(1))
	if err == nil {
		t.Fatalf("NewMG accepted a malformed stencil: %d levels", len(mg.levels))
	}
	var se *fault.ErrSetup
	if !errors.As(err, &se) {
		t.Fatalf("malformed stencil error not a fault.ErrSetup: %v", err)
	}
	if se.Stage != "coarsen" {
		t.Fatalf("wrong setup stage %q: %v", se.Stage, err)
	}

	// The size mismatch rejection is typed too.
	if _, err := NewMG(m, 5, 5, 5, NewPool(1)); err == nil || !errors.As(err, &se) {
		t.Fatalf("grid-mismatch error not a fault.ErrSetup: %v", err)
	}
}

// TestCGNotConvergedTyped pins the fields of the typed non-convergence
// error: the iteration count equals the exhausted budget and the residual
// matches the returned residual.
func TestCGNotConvergedTyped(t *testing.T) {
	m, b := spdStencil(12, 12, 3)
	cg := NewCG(m, NewPool(1), 1e-12)
	x := make([]float64, m.N)
	iters, residual, err := cg.SolveCtx(context.Background(), b, x, nil, 2)
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
// (cancel mid-solve + pool Close after cancel).
func TestCGCancelMidSolve(t *testing.T) {
	m, b := spdStencil(24, 24, 4)
	base := runtime.NumGoroutine()
	pool := NewPool(4)
	cg := NewCG(m, pool, 1e-12)
	x := make([]float64, m.N)
	budget := 10 * m.N

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // fires on the first per-iteration check
	if _, _, err := cg.SolveCtx(ctx, b, x, nil, budget); !errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("canceled solve did not report fault.ErrCanceled: %v", err)
	}

	// A deadline-based cancel additionally matches context.DeadlineExceeded.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, _, err := cg.SolveCtx(dctx, b, x, nil, budget); !errors.Is(err, fault.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline solve did not report fault.ErrCanceled and context.DeadlineExceeded: %v", err)
	}

	// The solver still solves after an abort.
	for i := range x {
		x[i] = 0
	}
	if _, _, err := cg.SolveCtx(context.Background(), b, x, nil, budget); err != nil {
		t.Fatalf("solve after cancel: %v", err)
	}
	pool.Close()
	waitGoroutines(t, base)
}

// TestMGApplyCtxCancel asserts the per-cycle cancellation check of the
// multigrid preconditioner.
func TestMGApplyCtxCancel(t *testing.T) {
	m, b := spdStencil(16, 16, 3)
	mg := refreshedMG(t, m, 16, 16, 3, NewPool(1))
	z := make([]float64, m.N)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := mg.apply(ctx, b, z); !errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("canceled apply did not report fault.ErrCanceled: %v", err)
	}
	// With a live cancelable context the result matches the uninstrumented
	// cycle exactly.
	want := make([]float64, m.N)
	if err := mg.apply(context.Background(), b, want); err != nil {
		t.Fatal(err)
	}
	live, liveCancel := context.WithCancel(context.Background())
	defer liveCancel()
	if err := mg.apply(live, b, z); err != nil {
		t.Fatal(err)
	}
	for i := range z {
		if z[i] != want[i] {
			t.Fatalf("cancelable apply differs from the uninstrumented cycle at %d: %g vs %g", i, z[i], want[i])
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

// TestCGPanicContained asserts that a panic inside the solve — here an
// out-of-range column index in the matrix — surfaces as a typed error from
// SolveCtx, not a crash, and the CG keeps working once the matrix is fixed.
func TestCGPanicContained(t *testing.T) {
	m, b := spdStencil(12, 12, 3)
	cg := NewCG(m, NewPool(1), 0)
	col := m.Col[0]
	m.Col[0] = int32(m.N)
	x := make([]float64, m.N)
	_, _, err := solve(cg, b, x, nil)
	var pe *fault.ErrPanic
	if !errors.As(err, &pe) {
		t.Fatalf("out-of-range column panic not contained: %v", err)
	}
	m.Col[0] = col
	for i := range x {
		x[i] = 0
	}
	if _, _, err := solve(cg, b, x, nil); err != nil {
		t.Fatalf("solve after contained panic: %v", err)
	}
}

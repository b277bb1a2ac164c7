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
func spdStencil(nx, ny, nl int) (*Stencil, []float64) {
	m := NewStencil(nx, ny, nl)
	for _, g := range [][]float64{m.GX, m.GY, m.GZ} {
		for i := range g {
			g[i] = 1
		}
	}
	for i := range m.Diag {
		m.Diag[i] = 8
	}
	b := make([]float64, len(m.Diag))
	for i := range b {
		b[i] = float64(i%13) + 1
	}
	return m, b
}

// TestCGNotConvergedTyped pins the fields of the typed non-convergence
// error: the iteration count equals the exhausted budget and the residual
// matches the returned residual.
func TestCGNotConvergedTyped(t *testing.T) {
	m, b := spdStencil(12, 12, 3)
	cg := NewCG(m, NewPool(1), 1e-12)
	x := make([]float64, len(b))
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

// waitGoroutines polls until the goroutine count returns to base, failing
// with a full stack dump if it does not settle.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCGCancelMidSolve asserts that a canceled context aborts the iteration
// with a typed error, the solver stays usable, and no goroutine outlives
// the solves.
func TestCGCancelMidSolve(t *testing.T) {
	m, b := spdStencil(24, 24, 4)
	base := runtime.NumGoroutine()
	pool := NewPool(4)
	cg := NewCG(m, pool, 1e-12)
	x := make([]float64, len(b))
	budget := 10 * len(b)

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
	waitGoroutines(t, base)
}

// TestPoolPanicContained asserts that a panic inside a pool task does not
// crash the process, deadlock the sibling tasks or leak goroutines: it is
// rethrown on the caller as a located *fault.ErrPanic and the pool stays
// usable.
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
	waitGoroutines(t, base)
}

// TestPoolRunJoinsBeforeRethrow pins the order inside Run when task 0 —
// the one on the calling goroutine — panics: the siblings are joined before
// the panic is rethrown, so every write they make is visible to the
// caller's recovery and no goroutine outlives the run. A rethrow before
// the join would let a solver's recovery, and its next solve, race with
// siblings still writing its vectors; run under -race.
func TestPoolRunJoinsBeforeRethrow(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPool(3)
	if !p.Parallel(3) {
		t.Fatal("pool refused parallel run")
	}
	out := make([]float64, 3)
	caught := func() (pe *fault.ErrPanic) {
		defer func() {
			if v := recover(); v != nil {
				pe, _ = v.(*fault.ErrPanic)
			}
		}()
		p.Run(3, func(w int) float64 {
			if w == 0 {
				panic("injected caller-task panic")
			}
			time.Sleep(20 * time.Millisecond)
			out[w] = float64(w)
			return 0
		})
		return nil
	}()
	if caught == nil || caught.Where != "sparse.Pool worker 0" {
		t.Fatalf("task-0 panic not rethrown as a located *fault.ErrPanic: %v", caught)
	}
	if out[1] != 1 || out[2] != 2 {
		t.Fatalf("sibling writes not visible after the rethrow: %v", out)
	}
	waitGoroutines(t, base)
}

// TestCGPanicContained asserts that a panic inside the solve — here an
// out-of-range index into a stencil stripped of its lateral conductances —
// surfaces as a typed error from SolveCtx, not a crash, and the CG keeps
// working once the stencil is fixed.
func TestCGPanicContained(t *testing.T) {
	m, b := spdStencil(12, 12, 3)
	cg := NewCG(m, NewPool(1), 0)
	gx := m.GX
	m.GX = nil
	x := make([]float64, len(b))
	_, _, err := solve(cg, b, x, nil)
	var pe *fault.ErrPanic
	if !errors.As(err, &pe) {
		t.Fatalf("out-of-range index panic not contained: %v", err)
	}
	m.GX = gx
	for i := range x {
		x[i] = 0
	}
	if _, _, err := solve(cg, b, x, nil); err != nil {
		t.Fatalf("solve after contained panic: %v", err)
	}
}

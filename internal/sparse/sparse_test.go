package sparse

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// solve runs c from the guess in x, preconditioned by pre (nil for Jacobi),
// with the thermal solver's budget of 10 iterations per unknown.
func solve(c *CG, b, x []float64, pre *Spectral) (int, float64, error) {
	return c.SolveCtx(context.Background(), b, x, pre, 10*len(b))
}

// laplacian1D builds the classic tridiagonal SPD matrix (2 on the diagonal,
// -1 off) with Dirichlet ends.
func laplacian1D(n int) *SymCSR {
	nnz := 2*n - 2
	m := NewSymCSR(n, nnz)
	k := int32(0)
	for i := 0; i < n; i++ {
		m.RowPtr[i] = k
		m.Diag[i] = 2
		if i > 0 {
			m.Col[k], m.Val[k] = int32(i-1), -1
			k++
		}
		if i+1 < n {
			m.Col[k], m.Val[k] = int32(i+1), -1
			k++
		}
	}
	m.RowPtr[n] = k
	return m
}

// laplacian2D builds the 5-point SPD grid Laplacian on an nx-by-ny grid with
// a small diagonal shift (every node weakly tied to a reference), mirroring
// the structure of the thermal system.
func laplacian2D(nx, ny int) *SymCSR {
	n := nx * ny
	deg := 0
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			if ix > 0 {
				deg++
			}
			if ix+1 < nx {
				deg++
			}
			if iy > 0 {
				deg++
			}
			if iy+1 < ny {
				deg++
			}
		}
	}
	m := NewSymCSR(n, deg)
	k := int32(0)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			i := iy*nx + ix
			m.RowPtr[i] = k
			d := 0.01 // tie to reference keeps the matrix non-singular
			add := func(j int) {
				m.Col[k], m.Val[k] = int32(j), -1
				k++
				d++
			}
			if iy > 0 {
				add(i - nx)
			}
			if ix > 0 {
				add(i - 1)
			}
			if ix+1 < nx {
				add(i + 1)
			}
			if iy+1 < ny {
				add(i + nx)
			}
			m.Diag[i] = d
		}
	}
	m.RowPtr[n] = k
	return m
}

func residualNorm(m *SymCSR, b, x []float64) float64 {
	r := make([]float64, m.N)
	m.MatVec(x, r)
	s, bs := 0.0, 0.0
	for i := range r {
		d := b[i] - r[i]
		s += d * d
		bs += b[i] * b[i]
	}
	return math.Sqrt(s) / math.Sqrt(bs)
}

func TestCGSolvesTridiagonal(t *testing.T) {
	n := 50
	m := laplacian1D(n)
	// Manufactured solution.
	want := make([]float64, n)
	for i := range want {
		want[i] = math.Sin(float64(i) / 5)
	}
	b := make([]float64, n)
	m.MatVec(want, b)
	x := make([]float64, n)
	iters, res, err := solve(NewCG(m, NewPool(1), 1e-12), b, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if iters <= 0 {
		t.Fatalf("expected iterative work, got %d iterations", iters)
	}
	if res > 1e-12 {
		t.Fatalf("residual %g above tolerance", res)
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-8 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestCGParallelMatchesSerial(t *testing.T) {
	m := laplacian2D(40, 40)
	rng := rand.New(rand.NewSource(7))
	b := make([]float64, m.N)
	for i := range b {
		b[i] = rng.Float64()
	}
	xs := make([]float64, m.N)
	if _, _, err := solve(NewCG(m, NewPool(1), 1e-11), b, xs, nil); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4} {
		c := NewCG(m, NewPool(workers), 1e-11)
		if c.workers != workers {
			t.Fatalf("CG on a %d-worker pool runs %d workers", workers, c.workers)
		}
		xp := make([]float64, m.N)
		if _, _, err := solve(c, b, xp, nil); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range xp {
			if math.Abs(xp[i]-xs[i]) > 1e-8 {
				t.Fatalf("workers=%d: x[%d] = %g, serial %g", workers, i, xp[i], xs[i])
			}
		}
	}
}

func TestCGWarmStartConvergesFaster(t *testing.T) {
	m := laplacian2D(30, 30)
	b := make([]float64, m.N)
	for i := range b {
		b[i] = 1
	}
	c := NewCG(m, NewPool(1), 0)
	cold := make([]float64, m.N)
	coldIters, _, err := solve(c, b, cold, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm start from the exact solution: must converge immediately.
	again := make([]float64, m.N)
	copy(again, cold)
	warmIters, res, err := solve(c, b, again, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warmIters != 0 {
		t.Fatalf("warm start from the solution took %d iterations", warmIters)
	}
	if res > 1e-9 {
		t.Fatalf("warm-start residual %g", res)
	}
	// Warm start from a nearby RHS's solution: must beat the cold count.
	b2 := make([]float64, m.N)
	for i := range b2 {
		b2[i] = 1.05
	}
	near := make([]float64, m.N)
	copy(near, cold)
	nearIters, _, err := solve(c, b2, near, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nearIters >= coldIters {
		t.Fatalf("warm start (%d iterations) no better than cold start (%d)", nearIters, coldIters)
	}
}

func TestCGZeroRHS(t *testing.T) {
	m := laplacian1D(10)
	x := make([]float64, 10)
	for i := range x {
		x[i] = 3 // stale warm-start content must be cleared
	}
	iters, res, err := solve(NewCG(m, NewPool(1), 0), make([]float64, 10), x, nil)
	if err != nil || iters != 0 || res != 0 {
		t.Fatalf("zero RHS: iters=%d res=%g err=%v", iters, res, err)
	}
	for i, v := range x {
		if v != 0 {
			t.Fatalf("x[%d] = %g, want 0", i, v)
		}
	}
}

func TestCGDimensionMismatch(t *testing.T) {
	m := laplacian1D(10)
	if _, _, err := solve(NewCG(m, NewPool(1), 0), make([]float64, 9), make([]float64, 10), nil); err == nil {
		t.Fatal("mismatched vector length must fail")
	}
}

func TestCGNotPositiveDefinite(t *testing.T) {
	m := laplacian1D(5)
	for i := range m.Diag {
		m.Diag[i] = -2 // makes the matrix negative definite
	}
	b := []float64{1, 1, 1, 1, 1}
	if _, _, err := solve(NewCG(m, NewPool(1), 0), b, make([]float64, 5), nil); err == nil {
		t.Fatal("negative-definite system must be rejected")
	}
}

func TestCGMaxIterations(t *testing.T) {
	m := laplacian2D(20, 20)
	b := make([]float64, m.N)
	for i := range b {
		b[i] = float64(i % 7)
	}
	_, _, err := NewCG(m, NewPool(1), 1e-14).SolveCtx(context.Background(), b, make([]float64, m.N), nil, 2)
	if err == nil {
		t.Fatal("unreachable tolerance within 2 iterations must error")
	}
}

func TestCGReuseAfterMatrixValueChange(t *testing.T) {
	// The thermal solver refreshes matrix values in place when the die
	// geometry changes; the bound CG must pick the new values up.
	m := laplacian2D(15, 15)
	c := NewCG(m, NewPool(1), 0)
	b := make([]float64, m.N)
	for i := range b {
		b[i] = 1
	}
	x1 := make([]float64, m.N)
	if _, _, err := solve(c, b, x1, nil); err != nil {
		t.Fatal(err)
	}
	for i := range m.Diag {
		m.Diag[i] *= 2
	}
	for i := range m.Val {
		m.Val[i] *= 2
	}
	x2 := make([]float64, m.N)
	copy(x2, x1) // warm start from the old solution
	if _, _, err := solve(c, b, x2, nil); err != nil {
		t.Fatal(err)
	}
	if got := residualNorm(m, b, x2); got > 1e-8 {
		t.Fatalf("solution stale after value refresh: residual %g", got)
	}
	// Scaling A by 2 halves the solution.
	for i := range x2 {
		if math.Abs(x2[i]-x1[i]/2) > 1e-6 {
			t.Fatalf("x2[%d] = %g, want %g", i, x2[i], x1[i]/2)
		}
	}
}

func TestWorkersAutoCap(t *testing.T) {
	// Tiny systems must not spin up a pool at all: the thermal solver sizes
	// its pool with AutoWorkers.
	if w := AutoWorkers(100); w != 1 {
		t.Fatalf("100-row system got %d workers, want 1", w)
	}
	// A CG never splits wider than its matrix.
	if w := NewCG(laplacian1D(3), NewPool(8), 0).workers; w != 3 {
		t.Fatalf("3-row CG on an 8-worker pool runs %d workers, want 3", w)
	}
}

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

// laplacian1D builds the classic tridiagonal SPD operator (2 on the
// diagonal, -1 off) with Dirichlet ends, as an n-by-1-by-1 stencil.
func laplacian1D(n int) *Stencil {
	a := NewStencil(n, 1, 1)
	a.GX[0] = 1
	for i := range a.Diag {
		a.Diag[i] = 2
	}
	return a
}

// laplacian2D builds the 5-point SPD grid Laplacian on an nx-by-ny grid with
// a small diagonal shift (every node weakly tied to a reference), mirroring
// the structure of the thermal system.
func laplacian2D(nx, ny int) *Stencil {
	a := NewStencil(nx, ny, 1)
	a.GX[0], a.GY[0] = 1, 1
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			links := 0
			for _, has := range []bool{ix > 0, ix+1 < nx, iy > 0, iy+1 < ny} {
				if has {
					links++
				}
			}
			a.Diag[iy*nx+ix] = float64(links) + 0.01 // the tie keeps it non-singular
		}
	}
	return a
}

// matVec returns A*x.
func matVec(a *Stencil, x []float64) []float64 {
	y := make([]float64, len(x))
	a.matVecRange(x, y, 0, len(x))
	return y
}

func residualNorm(a *Stencil, b, x []float64) float64 {
	r := matVec(a, x)
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
	b := matVec(m, want)
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
	n := len(m.Diag)
	rng := rand.New(rand.NewSource(7))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.Float64()
	}
	xs := make([]float64, n)
	if _, _, err := solve(NewCG(m, NewPool(1), 1e-11), b, xs, nil); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4} {
		c := NewCG(m, NewPool(workers), 1e-11)
		if c.workers != workers {
			t.Fatalf("CG on a %d-worker pool runs %d workers", workers, c.workers)
		}
		xp := make([]float64, n)
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
	n := len(m.Diag)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	c := NewCG(m, NewPool(1), 0)
	cold := make([]float64, n)
	coldIters, _, err := solve(c, b, cold, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm start from the exact solution: must converge immediately.
	again := make([]float64, n)
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
	b2 := make([]float64, n)
	for i := range b2 {
		b2[i] = 1.05
	}
	near := make([]float64, n)
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
		m.Diag[i] = -2 // makes the operator negative definite
	}
	b := []float64{1, 1, 1, 1, 1}
	if _, _, err := solve(NewCG(m, NewPool(1), 0), b, make([]float64, 5), nil); err == nil {
		t.Fatal("negative-definite system must be rejected")
	}
}

func TestCGMaxIterations(t *testing.T) {
	m := laplacian2D(20, 20)
	n := len(m.Diag)
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i % 7)
	}
	_, _, err := NewCG(m, NewPool(1), 1e-14).SolveCtx(context.Background(), b, make([]float64, n), nil, 2)
	if err == nil {
		t.Fatal("unreachable tolerance within 2 iterations must error")
	}
}

func TestCGReuseAfterMatrixValueChange(t *testing.T) {
	// The thermal solver refreshes the stencil's values in place when the
	// die geometry changes; the bound CG must pick the new values up.
	m := laplacian2D(15, 15)
	n := len(m.Diag)
	c := NewCG(m, NewPool(1), 0)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x1 := make([]float64, n)
	if _, _, err := solve(c, b, x1, nil); err != nil {
		t.Fatal(err)
	}
	for _, v := range [][]float64{m.GX, m.GY, m.GZ, m.Diag} {
		for i := range v {
			v[i] *= 2
		}
	}
	x2 := make([]float64, n)
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
	// A CG never splits wider than its operator.
	if w := NewCG(laplacian1D(3), NewPool(8), 0).workers; w != 3 {
		t.Fatalf("3-row CG on an 8-worker pool runs %d workers, want 3", w)
	}
}

// TestStencilMatchesDense materializes the operator column by column (A·e_j)
// and requires every entry to equal a dense matrix built here from the
// stencil's per-layer values, on a layered grid with side ties and on a
// line (ny = nl = 1). It also requires the product over the node range
// split 1, 2, 3 and 7 ways, so that ranges start mid-row, to equal the
// unsplit product bit for bit.
func TestStencilMatchesDense(t *testing.T) {
	for _, c := range []struct {
		name string
		a    *Stencil
	}{
		{"5x4x3 with side ties", thermalLike(5, 4, 3, 3e-4).matrix()},
		{"9x1x1 line", laplacian1D(9)},
	} {
		a := c.a
		nx, ny, nl := a.nx, a.ny, a.nl
		n := nx * ny * nl
		dense := make([][]float64, n)
		for i := range dense {
			dense[i] = make([]float64, n)
			dense[i][i] = a.Diag[i]
		}
		link := func(i, j int, g float64) { dense[i][j], dense[j][i] = -g, -g }
		for l := 0; l < nl; l++ {
			for iy := 0; iy < ny; iy++ {
				for ix := 0; ix < nx; ix++ {
					i := (l*ny+iy)*nx + ix
					if ix+1 < nx {
						link(i, i+1, a.GX[l])
					}
					if iy+1 < ny {
						link(i, i+nx, a.GY[l])
					}
					if l+1 < nl {
						link(i, i+nx*ny, a.GZ[l])
					}
				}
			}
		}
		e := make([]float64, n)
		for j := 0; j < n; j++ {
			e[j] = 1
			col := matVec(a, e)
			e[j] = 0
			for i := range col {
				if col[i] != dense[i][j] {
					t.Fatalf("%s: A[%d][%d] = %v, dense %v", c.name, i, j, col[i], dense[i][j])
				}
			}
		}

		x := randomVec(3, n, 1)
		want := matVec(a, x)
		for _, k := range []int{1, 2, 3, 7} {
			y := make([]float64, n)
			bounds := chunkBounds(n, k)
			for w := 0; w < k; w++ {
				a.matVecRange(x, y, bounds[w], bounds[w+1])
			}
			if i := firstDiff(y, want); i >= 0 {
				t.Fatalf("%s: product split %d ways differs at node %d: %v vs %v", c.name, k, i, y[i], want[i])
			}
		}
	}
}

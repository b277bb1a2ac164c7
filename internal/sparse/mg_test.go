package sparse

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// fillThermalLike fills a 7-point stencil with conductance-style values
// mirroring the thermal system's structure: anisotropic lateral/vertical
// links plus an ambient tie on the bottom layer and the side walls (which
// keeps the matrix non-singular, like the real boundary conditions).
func fillThermalLike(m *SymCSR, nx, ny, nl int) {
	const gx, gy, gz, gamb = 2.2e-3, 2.2e-3, 4.5e-4, 3.9e-5
	nxy := nx * ny
	for i := 0; i < m.N; i++ {
		l := i / nxy
		rem := i % nxy
		iy, ix := rem/nx, rem%nx
		d := 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := int(m.Col[k])
			var g float64
			switch {
			case j == i-1 || j == i+1:
				g = gx
			case j == i-nx || j == i+nx:
				g = gy
			default:
				g = gz
			}
			m.Val[k] = -g
			d += g
		}
		if l == 0 {
			d += gamb
		}
		if ix == 0 || ix == nx-1 || iy == 0 || iy == ny-1 {
			d += gamb * 0.01
		}
		m.Diag[i] = d
	}
}

func refreshedMG(t *testing.T, m *SymCSR, nx, ny, nl int, pool *Pool) *MG {
	t.Helper()
	mg, err := NewMG(m, nx, ny, nl, pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := mg.Refresh(); err != nil {
		t.Fatal(err)
	}
	return mg
}

// TestMGApplyIsSymmetric verifies the W-cycle is a symmetric operator — the
// property CG depends on — by materializing B column by column on a small
// grid and comparing B[i][j] against B[j][i]. The grid is the smallest
// whose hierarchy has an intermediate level (544 -> 144 -> 40 unknowns), so
// the W-cycle's second coarse correction is part of B.
func TestMGApplyIsSymmetric(t *testing.T) {
	nx, ny, nl := 17, 16, 2
	m := NewStencil7(nx, ny, nl)
	fillThermalLike(m, nx, ny, nl)
	mg := refreshedMG(t, m, nx, ny, nl, NewPool(1))
	if len(mg.levels) < 3 {
		t.Fatalf("want a hierarchy with an intermediate level, got %d levels", len(mg.levels))
	}
	n := m.N
	b := make([][]float64, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		col := make([]float64, n)
		if err := mg.apply(context.Background(), e, col); err != nil {
			t.Fatal(err)
		}
		b[j] = col
		e[j] = 0
	}
	scale := 0.0
	for j := range b {
		if v := math.Abs(b[j][j]); v > scale {
			scale = v
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			if d := math.Abs(b[i][j] - b[j][i]); d > 1e-12*scale {
				t.Fatalf("B[%d][%d]=%g but B[%d][%d]=%g (asymmetry %g)", i, j, b[i][j], j, i, b[j][i], d)
			}
		}
	}
	// Positive definiteness spot check: e_iᵀ B e_i > 0.
	for i := 0; i < n; i++ {
		if b[i][i] <= 0 {
			t.Fatalf("B[%d][%d] = %g, want positive", i, i, b[i][i])
		}
	}
}

// TestMGPCGMatchesJacobiPCG solves the same thermal-like system with both
// preconditioners and requires matching solutions with a several-fold
// iteration reduction from multigrid.
func TestMGPCGMatchesJacobiPCG(t *testing.T) {
	nx, ny, nl := 40, 40, 9
	m := NewStencil7(nx, ny, nl)
	fillThermalLike(m, nx, ny, nl)
	rng := rand.New(rand.NewSource(7))
	b := make([]float64, m.N)
	for i := range b {
		b[i] = rng.Float64() * 1e-3
	}
	c := NewCG(m, NewPool(1), 1e-11)
	xj := make([]float64, m.N)
	ij, _, err := solve(c, b, xj, nil)
	if err != nil {
		t.Fatal(err)
	}
	mg := refreshedMG(t, m, nx, ny, nl, NewPool(1))
	xm := make([]float64, m.N)
	im, res, err := solve(c, b, xm, mg)
	if err != nil {
		t.Fatal(err)
	}
	if res > 1e-11 {
		t.Fatalf("MG-PCG residual %g above tolerance", res)
	}
	worst := 0.0
	for i := range xm {
		if d := math.Abs(xm[i] - xj[i]); d > worst {
			worst = d
		}
	}
	// Solutions are ~1e2 K scale here; 1e-6 relative agreement mirrors the
	// thermal equivalence bound.
	if worst > 1e-6 {
		t.Fatalf("MG-PCG deviates from Jacobi-PCG by %g", worst)
	}
	if im*3 > ij {
		t.Fatalf("MG-PCG took %d iterations, Jacobi-PCG %d: want at least a 3x reduction", im, ij)
	}
}

// TestMGIterationCountGridIndependent sweeps the lateral resolution up to
// 160x160 with the paper's 9 layers and requires an essentially flat
// MG-PCG iteration count (the W-cycle property). The <15-iteration bound of
// the real thermal system (whose package coupling is stronger than this
// synthetic's) is asserted in internal/thermal's equivalence test.
func TestMGIterationCountGridIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("large-grid convergence sweep skipped in -short mode")
	}
	prev := 0
	for _, n := range []int{40, 80, 160} {
		m := NewStencil7(n, n, 9)
		fillThermalLike(m, n, n, 9)
		b := make([]float64, m.N)
		for i := range b {
			b[i] = 1e-4
		}
		mg := refreshedMG(t, m, n, n, 9, NewPool(1))
		x := make([]float64, m.N)
		iters, _, err := solve(NewCG(m, NewPool(1), 1e-9), b, x, mg)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		t.Logf("grid %dx%dx9: %d levels, %d MG-PCG iterations", n, n, len(mg.levels), iters)
		if iters >= 20 {
			t.Errorf("grid %dx%dx9: %d iterations, want < 20", n, n, iters)
		}
		if prev > 0 && iters > prev+3 {
			t.Errorf("iteration count grew from %d to %d between grid sizes; want near-flat", prev, iters)
		}
		prev = iters
	}
}

// TestMGRefreshTracksValueChanges changes the fine-matrix values in place
// (as the thermal solver does on a die-geometry change) and checks that a
// Refresh brings the hierarchy back in sync.
func TestMGRefreshTracksValueChanges(t *testing.T) {
	nx, ny, nl := 12, 12, 5
	m := NewStencil7(nx, ny, nl)
	fillThermalLike(m, nx, ny, nl)
	mg := refreshedMG(t, m, nx, ny, nl, NewPool(1))
	b := make([]float64, m.N)
	for i := range b {
		b[i] = float64(i%5) * 1e-4
	}
	x1 := make([]float64, m.N)
	c := NewCG(m, NewPool(1), 1e-12)
	if _, _, err := solve(c, b, x1, mg); err != nil {
		t.Fatal(err)
	}
	for i := range m.Val {
		m.Val[i] *= 2
	}
	for i := range m.Diag {
		m.Diag[i] *= 2
	}
	if err := mg.Refresh(); err != nil {
		t.Fatal(err)
	}
	x2 := make([]float64, m.N)
	if _, _, err := solve(c, b, x2, mg); err != nil {
		t.Fatal(err)
	}
	// Scaling A by 2 halves the solution.
	for i := range x2 {
		if math.Abs(x2[i]-x1[i]/2) > 1e-8*math.Abs(x1[i]/2)+1e-15 {
			t.Fatalf("x2[%d] = %g, want %g", i, x2[i], x1[i]/2)
		}
	}
}

func TestMGRejectsDimensionMismatch(t *testing.T) {
	m := NewStencil7(4, 4, 2)
	if _, err := NewMG(m, 5, 4, 2, NewPool(1)); err == nil {
		t.Fatal("mismatched grid dimensions must be rejected")
	}
}

// TestMGSingleLevelIsDirect: a grid below the coarsest threshold degenerates
// to a dense direct solve, which preconditions CG to convergence in one
// iteration.
func TestMGSingleLevelIsDirect(t *testing.T) {
	nx, ny, nl := 4, 4, 3
	m := NewStencil7(nx, ny, nl)
	fillThermalLike(m, nx, ny, nl)
	mg := refreshedMG(t, m, nx, ny, nl, NewPool(1))
	if len(mg.levels) != 1 {
		t.Fatalf("48 unknowns should be a single direct level, got %d levels", len(mg.levels))
	}
	b := make([]float64, m.N)
	b[5] = 1e-3
	x := make([]float64, m.N)
	iters, _, err := solve(NewCG(m, NewPool(1), 1e-10), b, x, mg)
	if err != nil {
		t.Fatal(err)
	}
	if iters > 2 {
		t.Fatalf("direct preconditioned CG took %d iterations", iters)
	}
}

// TestCGPoolReuse drives several solves through one parallel CG, checking
// the answers stay identical to the serial reference's.
func TestCGPoolReuse(t *testing.T) {
	m := laplacian2D(40, 40)
	b := make([]float64, m.N)
	for i := range b {
		b[i] = float64(i%11) - 5
	}
	ref := make([]float64, m.N)
	if _, _, err := solve(NewCG(m, NewPool(1), 1e-11), b, ref, nil); err != nil {
		t.Fatal(err)
	}
	c := NewCG(m, NewPool(3), 1e-11)
	for round := 0; round < 3; round++ {
		x := make([]float64, m.N)
		if _, _, err := solve(c, b, x, nil); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range x {
			if math.Abs(x[i]-ref[i]) > 1e-8 {
				t.Fatalf("round %d: x[%d] = %g, want %g", round, i, x[i], ref[i])
			}
		}
	}
}

// TestMGPooledSmootherBitIdentical runs the same W-cycle serially and on a
// multi-worker pool and requires exactly identical output: rows of one
// red-black color never read each other, so the partitioned sweeps must
// reproduce the serial ones bit for bit, which is what lets the thermal
// solver parallelize the smoother without perturbing any solve downstream.
func TestMGPooledSmootherBitIdentical(t *testing.T) {
	nx, ny, nl := 40, 40, 9 // 14400 rows: enough for a 3-way fine-level split
	m := NewStencil7(nx, ny, nl)
	fillThermalLike(m, nx, ny, nl)
	serial := refreshedMG(t, m, nx, ny, nl, NewPool(1))

	pool := NewPool(3)
	pooled := refreshedMG(t, m, nx, ny, nl, pool)
	if pooled.levels[0].kw < 2 {
		t.Fatalf("fine level not pooled (kw=%d); test needs a parallel smoother", pooled.levels[0].kw)
	}

	rng := rand.New(rand.NewSource(11))
	r := make([]float64, m.N)
	for i := range r {
		r[i] = rng.Float64() - 0.5
	}
	zs := make([]float64, m.N)
	zp := make([]float64, m.N)
	ctx := context.Background()
	if err := serial.apply(ctx, r, zs); err != nil {
		t.Fatal(err)
	}
	if err := pooled.apply(ctx, r, zp); err != nil {
		t.Fatal(err)
	}
	for i := range zs {
		if zs[i] != zp[i] {
			t.Fatalf("pooled cycle differs at row %d: %v vs %v", i, zp[i], zs[i])
		}
	}

	// The full preconditioned solve must also be bit-identical when CG and
	// MG share the pool. Both solves run the CG on the same 3-worker pool:
	// CG sums its reductions by worker, so only the MG's pool may differ.
	b := make([]float64, m.N)
	for i := range b {
		b[i] = rng.Float64() * 1e-3
	}
	cg := NewCG(m, pool, 0)
	run := func(mg *MG) []float64 {
		x := make([]float64, m.N)
		if _, _, err := solve(cg, b, x, mg); err != nil {
			t.Fatal(err)
		}
		return x
	}
	xs := run(serial)
	xp := run(pooled)
	for i := range xs {
		if xs[i] != xp[i] {
			t.Fatalf("pooled solve differs at row %d: %v vs %v", i, xp[i], xs[i])
		}
	}
}

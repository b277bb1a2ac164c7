package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// layered is a thermal-like 7-point system with per-layer conductances:
// lateral links gx and gy, vertical links gz[l] from layer l to l+1, a
// per-cell tie gd[l] to ambient on every node of layer l, and a side tie on
// the perimeter cells that only the matrix carries exactly (the
// preconditioner sees it spread over the layer, as the thermal solver passes
// it).
type layered struct {
	nx, ny, nl     int
	gx, gy, gz, gd []float64
	side           float64
}

// thermalLike returns an anisotropic layered system whose only ambient ties
// are a weak bottom sink, a weaker top one and the side term.
func thermalLike(nx, ny, nl int, side float64) layered {
	s := layered{nx: nx, ny: ny, nl: nl, side: side,
		gx: make([]float64, nl), gy: make([]float64, nl), gz: make([]float64, nl-1), gd: make([]float64, nl)}
	for l := 0; l < nl; l++ {
		s.gx[l] = 2.2e-3 * float64(1+l%3)
		s.gy[l] = 1.7e-3 * float64(1+l%2)
		if l+1 < nl {
			s.gz[l] = 4.5e-4 * float64(1+l%4)
		}
	}
	s.gd[0] += 3.9e-5
	s.gd[nl-1] += 1e-6
	return s
}

// matrix assembles the system with the side tie on the perimeter cells.
func (s layered) matrix() *SymCSR {
	m := NewStencil7(s.nx, s.ny, s.nl)
	nxy := s.nx * s.ny
	for i := 0; i < m.N; i++ {
		l, ix, iy := i/nxy, i%s.nx, i%nxy/s.nx
		d := s.gd[l]
		if ix == 0 || ix == s.nx-1 {
			d += s.side
		}
		if iy == 0 || iy == s.ny-1 {
			d += s.side
		}
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			var g float64
			switch j := int(m.Col[k]); {
			case j == i-1 || j == i+1:
				g = s.gx[l]
			case j == i-s.nx || j == i+s.nx:
				g = s.gy[l]
			case j < i:
				g = s.gz[l-1]
			default:
				g = s.gz[l]
			}
			m.Val[k] = -g
			d += g
		}
		m.Diag[i] = d
	}
	return m
}

// spectral builds the preconditioner of the system on pool, with the side
// ties spread evenly over each layer.
func (s layered) spectral(pool *Pool) *Spectral {
	p := NewSpectral(s.nx, s.ny, s.nl, pool)
	gd := make([]float64, s.nl)
	for l := range gd {
		gd[l] = s.gd[l] + s.side*float64(2*s.nx+2*s.ny)/float64(s.nx*s.ny)
	}
	p.Refresh(s.gx, s.gy, s.gz, gd)
	return p
}

// randomVec returns n deterministic values in [0, scale).
func randomVec(seed int64, n int, scale float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64() * scale
	}
	return v
}

// TestDCTMatchesDense checks the FFT-based orthonormal DCT-II against the
// O(n²) definition, and its inverse as a round trip, on prime, odd,
// power-of-two and mixed lengths, for one line alone and for two lines
// sharing an FFT, through the strided path the column transforms take.
func TestDCTMatchesDense(t *testing.T) {
	const stride = 3
	for _, n := range []int{2, 3, 5, 7, 9, 10, 16, 17, 40, 160} {
		d := newDCT(n)
		buf := [2][]complex128{make([]complex128, n), make([]complex128, n)}
		tol := 1e-12 * float64(n)
		for _, lines := range [][2]int{{1, 1}, {1, 2}} {
			x := randomVec(int64(n), n*stride, 2)
			orig := slices.Clone(x)
			d.apply(x, lines[0], lines[1], stride, buf, false)
			for _, off := range lines {
				for k := 0; k < n; k++ {
					want := 0.0
					for j := 0; j < n; j++ {
						want += orig[off+j*stride] * math.Cos(math.Pi*float64(k*(2*j+1))/float64(2*n))
					}
					if k == 0 {
						want *= math.Sqrt(1 / float64(n))
					} else {
						want *= math.Sqrt(2 / float64(n))
					}
					if got := x[off+k*stride]; math.Abs(got-want) > tol {
						t.Fatalf("n=%d lines %v: line %d X[%d] = %.17g, dense DCT-II %.17g", n, lines, off, k, got, want)
					}
				}
			}
			for i := range x {
				if i%stride != lines[0] && i%stride != lines[1] && x[i] != orig[i] {
					t.Fatalf("n=%d lines %v: transform wrote outside its lines at %d", n, lines, i)
				}
			}
			d.apply(x, lines[0], lines[1], stride, buf, true)
			for i := range x {
				if math.Abs(x[i]-orig[i]) > tol {
					t.Fatalf("n=%d lines %v: round trip x[%d] = %.17g, want %.17g", n, lines, i, x[i], orig[i])
				}
			}
		}
	}
}

// TestSpectralApplyIsSymmetric materializes M⁻¹ column by column on a small
// grid with side ties (so M is not the matrix itself) and requires the
// symmetry CG depends on, with a positive diagonal.
func TestSpectralApplyIsSymmetric(t *testing.T) {
	sys := thermalLike(5, 4, 3, 3e-4)
	pre := sys.spectral(NewPool(1))
	n := sys.nx * sys.ny * sys.nl
	b := make([][]float64, n)
	e := make([]float64, n)
	for j := range b {
		e[j] = 1
		b[j] = make([]float64, n)
		pre.apply(e, b[j])
		e[j] = 0
	}
	scale := 0.0
	for j := range b {
		scale = max(scale, math.Abs(b[j][j]))
	}
	for i := 0; i < n; i++ {
		if b[i][i] <= 0 {
			t.Fatalf("M⁻¹[%d][%d] = %g, want positive", i, i, b[i][i])
		}
		for j := 0; j < i; j++ {
			if d := math.Abs(b[i][j] - b[j][i]); d > 1e-12*scale {
				t.Fatalf("M⁻¹[%d][%d]=%g but M⁻¹[%d][%d]=%g (asymmetry %g)", i, j, b[i][j], j, i, b[j][i], d)
			}
		}
	}
}

// TestSpectralIsDirectWithoutSideTerms: with no side ties the operator is
// separable and the preconditioner is its exact inverse, so PCG converges
// in one iteration on square, odd and prime-sized grids.
func TestSpectralIsDirectWithoutSideTerms(t *testing.T) {
	for _, g := range [][3]int{{9, 7, 3}, {17, 16, 4}, {40, 40, 9}} {
		sys := thermalLike(g[0], g[1], g[2], 0)
		m := sys.matrix()
		x := make([]float64, m.N)
		iters, res, err := solve(NewCG(m, NewPool(1), 1e-10), randomVec(5, m.N, 1e-3), x, sys.spectral(NewPool(1)))
		if err != nil {
			t.Fatal(err)
		}
		if iters != 1 {
			t.Fatalf("%dx%dx%d: direct preconditioned CG took %d iterations (residual %g), want 1", g[0], g[1], g[2], iters, res)
		}
	}
}

// TestSpectralPCGMatchesJacobiPCG solves the same system with side ties by
// both preconditioners and requires matching solutions with a several-fold
// iteration reduction from the spectral one.
func TestSpectralPCGMatchesJacobiPCG(t *testing.T) {
	sys := thermalLike(40, 40, 9, 3e-5)
	m := sys.matrix()
	b := randomVec(7, m.N, 1e-3)
	c := NewCG(m, NewPool(1), 1e-11)
	xj := make([]float64, m.N)
	ij, _, err := solve(c, b, xj, nil)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, m.N)
	is, _, err := solve(c, b, xs, sys.spectral(NewPool(1)))
	if err != nil {
		t.Fatal(err)
	}
	worst, scale := 0.0, 0.0
	for i := range xs {
		worst = max(worst, math.Abs(xs[i]-xj[i]))
		scale = max(scale, math.Abs(xj[i]))
	}
	if worst > 1e-8*scale {
		t.Fatalf("spectral PCG deviates from Jacobi PCG by %g (solution scale %g)", worst, scale)
	}
	if is*3 > ij {
		t.Fatalf("spectral PCG took %d iterations, Jacobi PCG %d: want at least a 3x reduction", is, ij)
	}
}

// TestSpectralIterationCountGridIndependent sweeps the lateral resolution up
// to 160x160 with 9 layers and side ties, and requires a small, flat
// iteration count.
func TestSpectralIterationCountGridIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("large-grid convergence sweep skipped in -short mode")
	}
	prev := 0
	for _, n := range []int{40, 80, 160} {
		sys := thermalLike(n, n, 9, 3e-5)
		m := sys.matrix()
		b := make([]float64, m.N)
		for i := range b {
			b[i] = 1e-4
		}
		x := make([]float64, m.N)
		iters, _, err := solve(NewCG(m, NewPool(1), 1e-9), b, x, sys.spectral(NewPool(1)))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		t.Logf("grid %dx%dx9: %d spectral PCG iterations", n, n, iters)
		if iters >= 10 {
			t.Errorf("grid %dx%dx9: %d iterations, want < 10", n, n, iters)
		}
		if prev > 0 && iters > prev+1 {
			t.Errorf("iteration count grew from %d to %d between grid sizes; want flat", prev, iters)
		}
		prev = iters
	}
}

// TestSpectralRefreshTracksValueChanges changes every conductance in place
// (as the thermal solver does on a die-geometry change) and checks that a
// Refresh keeps the preconditioner exact: the side-free system still solves
// in one iteration, to half the old solution.
func TestSpectralRefreshTracksValueChanges(t *testing.T) {
	sys := thermalLike(12, 12, 5, 0)
	m := sys.matrix()
	pre := sys.spectral(NewPool(1))
	c := NewCG(m, NewPool(1), 1e-12)
	b := randomVec(9, m.N, 1e-3)
	x1 := make([]float64, m.N)
	if _, _, err := solve(c, b, x1, pre); err != nil {
		t.Fatal(err)
	}
	for _, g := range [][]float64{sys.gx, sys.gy, sys.gz, sys.gd} {
		for i := range g {
			g[i] *= 2
		}
	}
	*m = *sys.matrix()
	pre.Refresh(sys.gx, sys.gy, sys.gz, sys.gd)
	x2 := make([]float64, m.N)
	iters, _, err := solve(c, b, x2, pre)
	if err != nil {
		t.Fatal(err)
	}
	if iters != 1 {
		t.Fatalf("refreshed preconditioner took %d iterations, want 1", iters)
	}
	for i := range x2 {
		if math.Abs(x2[i]-x1[i]/2) > 1e-9*math.Abs(x1[i]/2) {
			t.Fatalf("x2[%d] = %g, want %g", i, x2[i], x1[i]/2)
		}
	}
}

// TestCGPoolReuse drives several spectral-preconditioned solves through one
// parallel CG and preconditioner: each round matches the serial reference
// and repeats the first round bit for bit.
func TestCGPoolReuse(t *testing.T) {
	sys := thermalLike(40, 40, 9, 3e-5)
	m := sys.matrix()
	b := randomVec(13, m.N, 1e-3)
	ref := make([]float64, m.N)
	if _, _, err := solve(NewCG(m, NewPool(1), 1e-11), b, ref, sys.spectral(NewPool(1))); err != nil {
		t.Fatal(err)
	}
	scale := 0.0
	for _, v := range ref {
		scale = max(scale, math.Abs(v))
	}
	pool := NewPool(3)
	c, pre := NewCG(m, pool, 1e-11), sys.spectral(pool)
	var first []float64
	for round := 0; round < 3; round++ {
		x := make([]float64, m.N)
		if _, _, err := solve(c, b, x, pre); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range x {
			if math.Abs(x[i]-ref[i]) > 1e-8*scale {
				t.Fatalf("round %d: x[%d] = %g, want %g", round, i, x[i], ref[i])
			}
		}
		if first == nil {
			first = x
		} else if !slices.Equal(x, first) {
			t.Fatalf("round %d differs from round 0", round)
		}
	}
}

// TestSpectralPooledApplyBitIdentical applies the preconditioner serially
// and on 2- and 3-worker pools and requires identical output: every layer
// transform and every mode solve has exactly one owner, so the split cannot
// change a bit, and a full solve sharing the CG's pool is bit-identical
// too.
func TestSpectralPooledApplyBitIdentical(t *testing.T) {
	sys := thermalLike(40, 40, 9, 3e-5)
	m := sys.matrix()
	r := randomVec(11, m.N, 1)
	cgPool := NewPool(3)
	cg := NewCG(m, cgPool, 0)
	b := randomVec(12, m.N, 1e-3)
	var wantZ, wantX []float64
	for _, workers := range []int{1, 2, 3} {
		pool := NewPool(workers)
		if workers == 3 {
			pool = cgPool
		}
		pre := sys.spectral(pool)
		if workers > 1 && pre.k != workers {
			t.Fatalf("%d-worker pool split the passes %d ways", workers, pre.k)
		}
		z := make([]float64, m.N)
		pre.apply(r, z)
		x := make([]float64, m.N)
		if _, _, err := solve(cg, b, x, pre); err != nil {
			t.Fatal(err)
		}
		if wantZ == nil {
			wantZ, wantX = z, x
			continue
		}
		if i := firstDiff(z, wantZ); i >= 0 {
			t.Fatalf("%d-worker apply differs at row %d: %v vs %v", workers, i, z[i], wantZ[i])
		}
		if i := firstDiff(x, wantX); i >= 0 {
			t.Fatalf("%d-worker solve differs at row %d: %v vs %v", workers, i, x[i], wantX[i])
		}
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []float64) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

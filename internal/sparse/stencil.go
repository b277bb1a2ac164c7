// Package sparse provides the numerical kernel of the structured-grid
// thermal fast path, and serves exactly one client, thermal.Solver: the
// matrix-free 7-point operator of an nx-by-ny-by-nl grid whose layers each
// carry one lateral conductance per axis (Stencil), a conjugate-gradient
// solver (CG) preconditioned by Jacobi or by a separable spectral solve of
// that operator (Spectral: a DCT of every layer and one tridiagonal solve
// per lateral mode), and the fork-join worker pool (Pool) both run on.
//
// Unlike package spice, which assembles nodal equations from a netlist of
// named elements, this package works on plain integer-indexed vectors: the
// caller (package thermal) maps grid cells to contiguous indices once and
// never touches strings or maps on the solve path. All numeric buffers and
// the per-operation tasks are reusable across solves, so a re-solve with a
// new right-hand side allocates nothing beyond the goroutines each parallel
// operation starts and joins; none outlives the operation.
package sparse

// Stencil is the symmetric 7-point operator of an nx-by-ny-by-nl structured
// grid, node (l, ix, iy) at index (l*ny+iy)*nx + ix, stored as its distinct
// values: A has Diag[i] on the diagonal, -GX[l] to the x±1 neighbours and
// -GY[l] to the y±1 neighbours of every node of layer l, and -GZ[l-1] /
// -GZ[l] to the node below / above; a node on a grid face has no link
// across it. CG needs A positive definite, which a conductance matrix is
// when every diagonal is the sum of the node's links plus its tie to
// ambient, and some node has a positive tie.
type Stencil struct {
	nx, ny, nl int
	// GX and GY hold every layer's lateral link conductance (nl values each).
	GX, GY []float64
	// GZ[l] is the vertical link conductance from layer l to l+1 (nl-1
	// values).
	GZ []float64
	// Diag holds the diagonal of every node.
	Diag []float64
}

// NewStencil allocates the operator of an nx-by-ny-by-nl grid with every
// value zero; the caller fills GX, GY, GZ and Diag.
func NewStencil(nx, ny, nl int) *Stencil {
	return &Stencil{
		nx: nx, ny: ny, nl: nl,
		GX:   make([]float64, nl),
		GY:   make([]float64, nl),
		GZ:   make([]float64, max(nl-1, 0)),
		Diag: make([]float64, nx*ny*nl),
	}
}

// matVecRange computes y[lo:hi] = (A*x)[lo:hi] for any node range, one grid
// row segment at a time. Every row sums Diag[i]*x[i] first and then its
// neighbours in the order z-1, y-1, x-1, x+1, y+1, z+1, so a product is
// bit-identical however the node range is split.
func (a *Stencil) matVecRange(x, y []float64, lo, hi int) {
	nx, ny, nl := a.nx, a.ny, a.nl
	nxy := nx * ny
	for i := lo; i < hi; {
		l, iy, ix := i/nxy, i%nxy/nx, i%nx
		end := min(hi, i-ix+nx)
		gx, gy := a.GX[l], a.GY[l]
		var gDown, gUp float64
		if l > 0 {
			gDown = a.GZ[l-1]
		}
		if l+1 < nl {
			gUp = a.GZ[l]
		}
		for ; i < end; i, ix = i+1, ix+1 {
			sum := a.Diag[i] * x[i]
			if l > 0 {
				sum -= gDown * x[i-nxy]
			}
			if iy > 0 {
				sum -= gy * x[i-nx]
			}
			if ix > 0 {
				sum -= gx * x[i-1]
			}
			if ix+1 < nx {
				sum -= gx * x[i+1]
			}
			if iy+1 < ny {
				sum -= gy * x[i+nx]
			}
			if l+1 < nl {
				sum -= gUp * x[i+nxy]
			}
			y[i] = sum
		}
	}
}

// residualRange computes r[lo:hi] = (b - A*x)[lo:hi] and returns its
// squared norm.
func (a *Stencil) residualRange(b, x, r []float64, lo, hi int) float64 {
	a.matVecRange(x, r, lo, hi)
	s := 0.0
	for i := lo; i < hi; i++ {
		r[i] = b[i] - r[i]
		s += r[i] * r[i]
	}
	return s
}

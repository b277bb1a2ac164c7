// Package sparse provides the numerical kernel of the structured-grid
// thermal fast path, and serves exactly one client, thermal.Solver: a
// symmetric sparse matrix in compressed-sparse-row form, a conjugate-gradient
// solver (CG) preconditioned by Jacobi or by a separable spectral solve
// (Spectral: a DCT of every layer and one tridiagonal solve per lateral mode)
// of the 7-point stencil of a structured nx-by-ny-by-nl grid, and the
// fork-join worker pool (Pool) both run on.
//
// Unlike package spice, which assembles nodal equations from a netlist of
// named elements, this package works on plain integer-indexed vectors: the
// caller (package thermal) maps grid cells to contiguous indices once and
// never touches strings or maps on the solve path. All numeric buffers and
// the per-operation tasks are reusable across solves, so a re-solve with a
// new right-hand side allocates nothing beyond the goroutines each parallel
// operation starts and joins; none outlives the operation.
package sparse

// SymCSR is a symmetric positive-definite matrix stored as a diagonal
// vector plus the off-diagonal entries of every row in CSR form. The full
// off-diagonal pattern is stored (both (i,j) and (j,i)), which keeps the
// matrix-vector product a pure row-parallel loop.
type SymCSR struct {
	// N is the number of rows (= columns).
	N int
	// RowPtr has length N+1; the off-diagonal entries of row i are
	// Col[RowPtr[i]:RowPtr[i+1]] / Val[RowPtr[i]:RowPtr[i+1]].
	RowPtr []int32
	// Col holds the column index of every off-diagonal entry.
	Col []int32
	// Val holds the value of every off-diagonal entry.
	Val []float64
	// Diag holds the diagonal entries.
	Diag []float64
}

// NewSymCSR allocates an n-by-n matrix with room for nnzOff off-diagonal
// entries. RowPtr, Col and Val are allocated at full capacity but start
// zeroed; the caller fills them in row order.
func NewSymCSR(n, nnzOff int) *SymCSR {
	return &SymCSR{
		N:      n,
		RowPtr: make([]int32, n+1),
		Col:    make([]int32, nnzOff),
		Val:    make([]float64, nnzOff),
		Diag:   make([]float64, n),
	}
}

// NewStencil7 builds the sparsity pattern of the 7-point stencil on an
// nx-by-ny-by-nl structured grid, where node (l, ix, iy) has index
// (l*ny+iy)*nx + ix. The off-diagonal columns of every row are emitted in
// ascending order — z-1, y-1, x-1, x+1, y+1, z+1 — which callers filling
// values rely on. Values start zeroed.
func NewStencil7(nx, ny, nl int) *SymCSR {
	nxy := nx * ny
	lateral := 2 * ((nx-1)*ny + nx*(ny-1)) * nl
	vertical := 2 * nxy * (nl - 1)
	m := NewSymCSR(nxy*nl, lateral+vertical)
	k := int32(0)
	for l := 0; l < nl; l++ {
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				i := (l*ny+iy)*nx + ix
				m.RowPtr[i] = k
				if l > 0 {
					m.Col[k] = int32(i - nxy)
					k++
				}
				if iy > 0 {
					m.Col[k] = int32(i - nx)
					k++
				}
				if ix > 0 {
					m.Col[k] = int32(i - 1)
					k++
				}
				if ix+1 < nx {
					m.Col[k] = int32(i + 1)
					k++
				}
				if iy+1 < ny {
					m.Col[k] = int32(i + nx)
					k++
				}
				if l+1 < nl {
					m.Col[k] = int32(i + nxy)
					k++
				}
			}
		}
	}
	m.RowPtr[m.N] = k
	return m
}

// MatVec computes y = A*x.
func (m *SymCSR) MatVec(x, y []float64) { m.matVecRange(x, y, 0, m.N) }

// matVecRange computes y[lo:hi] = (A*x)[lo:hi].
func (m *SymCSR) matVecRange(x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		sum := m.Diag[i] * x[i]
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			sum += m.Val[k] * x[m.Col[k]]
		}
		y[i] = sum
	}
}

// Residual computes r = b - A*x and returns r·r, fused in one pass.
func (m *SymCSR) residualRange(b, x, r []float64, lo, hi int) float64 {
	s := 0.0
	for i := lo; i < hi; i++ {
		sum := m.Diag[i] * x[i]
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			sum += m.Val[k] * x[m.Col[k]]
		}
		r[i] = b[i] - sum
		s += r[i] * r[i]
	}
	return s
}

// Aggregate returns the piecewise-constant aggregation map from a fine
// nx-by-ny-by-nl grid onto a coarse cnx-by-cny grid with the same nl layers:
// out[i] is the coarse node of fine node i, both in the (l*ny+iy)*nx + ix
// layout of NewStencil7. Fine cell ix lands in coarse cell ix*cnx/nx (the
// proportional map), so every coarse cell pools a contiguous block of fine
// cells. The adaptive sweep restricts the baseline power map onto its
// coarse thermal grid through it.
func Aggregate(nx, ny, nl, cnx, cny int) []int32 {
	parent := make([]int32, nx*ny*nl)
	for l := 0; l < nl; l++ {
		for iy := 0; iy < ny; iy++ {
			ciy := iy * cny / ny
			for ix := 0; ix < nx; ix++ {
				parent[(l*ny+iy)*nx+ix] = int32((l*cny+ciy)*cnx + ix*cnx/nx)
			}
		}
	}
	return parent
}

// Restrict applies the transpose of piecewise-constant interpolation: coarse
// is zeroed and every fine entry is summed into its aggregate, in fine-index
// order (float addition order is fixed, so the result is reproducible). It
// downsamples grid-shaped data, such as a power map, without losing any of
// its total.
func Restrict(fine []float64, parent []int32, coarse []float64) {
	for i := range coarse {
		coarse[i] = 0
	}
	for i, p := range parent {
		coarse[p] += fine[i]
	}
}

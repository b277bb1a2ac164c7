package sparse

import (
	"context"
	"fmt"
	"math"

	"thermplace/internal/fault"
)

// coarsestN stops the coarsening once a level has at most this many
// unknowns; that level is solved directly by dense Cholesky. The
// factorization is O(n³) and runs on every Refresh, and the W-cycle hits the
// coarsest level 2^(levels-1) times per application, so a small direct level
// beats a shallow hierarchy on both counts.
const coarsestN = 128

// MG is a geometric multigrid W-cycle specialized to the 7-point stencil of
// an nx-by-ny-by-nl structured grid (node (l, ix, iy) at (l*ny+iy)*nx + ix,
// the layout of NewStencil7 and of the thermal solver). CG.SolveCtx takes it
// as its preconditioner.
//
// The hierarchy coarsens 2x in x and y while keeping all nl layers — the
// thermal stack has only a handful of layers and carries the strong
// boundary coupling, so flattening it buys nothing. Each coarse operator is
// the Galerkin product PᵀAP with piecewise-constant interpolation over the
// 2x2 cell aggregates, which keeps every level a 7-point stencil on the
// same SymCSR layout (each fine off-diagonal either crosses to exactly one
// neighbouring aggregate or collapses onto the coarse diagonal). Smoothing
// is red-black Gauss-Seidel — the 7-point stencil is bipartite under
// (ix+iy+l) parity — one sweep applied red-then-black before the coarse
// correction and black-then-red after, which makes the cycle a fixed
// symmetric positive-definite operator as CG requires. Every intermediate
// level takes two coarse corrections (the W-cycle), whose iteration counts
// stay flat as the grid grows; with 4x coarsening per level it costs only
// ~2x the fine-grid work of a single-correction V-cycle. The coarsest level
// is solved exactly by dense Cholesky.
//
// The fine matrix is referenced, not copied: after changing its values
// (e.g. a die-geometry refresh), call Refresh to rebuild the coarse
// operators and the coarsest factorization. The sparsity-dependent setup
// (aggregates, Galerkin scatter targets, red-black ordering) is computed
// once in NewMG; Refresh is a single O(nnz) accumulation pass per level.
// An MG value is not safe for concurrent use.
type MG struct {
	levels []*mgLevel

	// ctx and ctxErr carry the cancellation state of a cancelable apply in
	// flight: cycle checks ctx at every level entry and records the abort in
	// ctxErr, unwinding without touching the remaining levels. Both are nil
	// when the context can never fire.
	ctx    context.Context
	ctxErr error
}

type mgLevel struct {
	nx, ny, nl int
	m          *SymCSR

	// red and black split the rows by (ix+iy+l) parity for the smoother.
	red, black []int32

	// b, x and r are the per-level right-hand side, iterate and residual;
	// r2 and x2 carry the second correction of a W-cycle. Each is only
	// allocated on the levels that use it (level 0 works on the caller's
	// vectors, the coarsest level never computes a residual, and only
	// intermediate levels take a W-cycle second correction).
	b, x, r, r2, x2 []float64

	// parent maps each node to its aggregate on the next-coarser level;
	// offTarget maps each off-diagonal entry to the coarse Val index it
	// accumulates into, or to ^diagIndex when the entry is internal to an
	// aggregate and collapses onto the coarse diagonal. Both are nil on the
	// coarsest level.
	parent    []int32
	offTarget []int32

	// chol is the dense lower-triangular Cholesky factor of the coarsest
	// level (row-major n*n), nil elsewhere.
	chol []float64

	// pool and kw enable kw-way parallel smoothing/residual/prolongation on
	// this level (nil/0 on levels too small to split). curB/curX/curR/curCX
	// carry the vectors of the operation in flight to the prebuilt tasks,
	// which partition work by the precomputed bounds; the red-black
	// independence of the 7-point stencil makes every parallel sweep
	// bit-identical to the serial one.
	pool                              *Pool
	kw                                int
	redBounds, blackBounds, rowBounds []int
	curB, curX, curR, curCX           []float64
	redTask, blackTask, zeroRedTask   func(w int) float64
	residTask, prolongTask            func(w int) float64
}

// NewMG builds the multigrid hierarchy for m, which must be the 7-point
// stencil of an nx-by-ny-by-nl grid in NewStencil7 layout. Matrix values
// may still be zero at this point; call Refresh once they are filled (and
// again after every in-place value change).
//
// The red-black smoother, residual and prolongation of the levels with at
// least minRowsPerWorker rows per worker run on pool (the enclosing CG's
// pool); the rest stay serial. Rows of one color never read each other, so
// the parallel sweeps are bit-identical to the serial ones for any worker
// count.
func NewMG(m *SymCSR, nx, ny, nl int, pool *Pool) (*MG, error) {
	if nx < 1 || ny < 1 || nl < 1 || nx*ny*nl != m.N {
		return nil, &fault.ErrSetup{Stage: "grid",
			Err: fmt.Errorf("sparse: MG grid %dx%dx%d does not match matrix size %d", nx, ny, nl, m.N)}
	}
	g := &MG{}
	lv := newMGLevel(m, nx, ny, nl)
	g.levels = append(g.levels, lv)
	for lv.m.N > coarsestN {
		nxc, nyc := (lv.nx+1)/2, (lv.ny+1)/2
		if nxc*nyc*lv.nl >= lv.m.N {
			break // cannot coarsen further (nx = ny = 1)
		}
		coarse := newMGLevel(NewStencil7(nxc, nyc, lv.nl), nxc, nyc, lv.nl)
		if err := lv.buildCoarsening(coarse); err != nil {
			return nil, &fault.ErrSetup{Stage: "coarsen", Err: err}
		}
		g.levels = append(g.levels, coarse)
		lv = coarse
	}
	last := len(g.levels) - 1
	g.levels[last].chol = make([]float64, g.levels[last].m.N*g.levels[last].m.N)
	for i, lv := range g.levels {
		n := lv.m.N
		if i > 0 {
			// Restriction target and coarse iterate, written by the parent
			// level; level 0 works on the caller's r/z directly.
			lv.b = make([]float64, n)
			lv.x = make([]float64, n)
		}
		if i < last {
			lv.r = make([]float64, n) // residual before restriction
		}
		if i > 0 && i < last {
			// Second W-cycle correction; the coarsest solve is exact, so
			// it never takes one.
			lv.r2 = make([]float64, n)
			lv.x2 = make([]float64, n)
		}
	}
	for _, lv := range g.levels {
		lv.setupPool(pool)
	}
	return g, nil
}

// chunkBounds splits [0, n) into k contiguous ranges.
func chunkBounds(n, k int) []int {
	b := make([]int, k+1)
	for i := 0; i <= k; i++ {
		b[i] = i * n / k
	}
	return b
}

// setupPool attaches the shared pool to a level large enough to benefit and
// prebuilds the partitioned tasks so a cycle allocates nothing.
func (lv *mgLevel) setupPool(p *Pool) {
	k := p.Workers()
	if byRows := lv.m.N / minRowsPerWorker; k > byRows {
		k = byRows
	}
	if k < 2 || lv.chol != nil {
		return
	}
	lv.pool = p
	lv.kw = k
	lv.redBounds = chunkBounds(len(lv.red), k)
	lv.blackBounds = chunkBounds(len(lv.black), k)
	lv.rowBounds = chunkBounds(lv.m.N, k)
	lv.redTask = func(w int) float64 {
		lv.gsRows(lv.curB, lv.curX, lv.red[lv.redBounds[w]:lv.redBounds[w+1]])
		return 0
	}
	lv.blackTask = func(w int) float64 {
		lv.gsRows(lv.curB, lv.curX, lv.black[lv.blackBounds[w]:lv.blackBounds[w+1]])
		return 0
	}
	lv.zeroRedTask = func(w int) float64 {
		b, x, diag := lv.curB, lv.curX, lv.m.Diag
		for _, i := range lv.red[lv.redBounds[w]:lv.redBounds[w+1]] {
			x[i] = b[i] / diag[i]
		}
		return 0
	}
	lv.residTask = func(w int) float64 {
		lv.m.residualRange(lv.curB, lv.curX, lv.curR, lv.rowBounds[w], lv.rowBounds[w+1])
		return 0
	}
	lv.prolongTask = func(w int) float64 {
		x, cx := lv.curX, lv.curCX
		for i := lv.rowBounds[w]; i < lv.rowBounds[w+1]; i++ {
			x[i] += cx[lv.parent[i]]
		}
		return 0
	}
}

func newMGLevel(m *SymCSR, nx, ny, nl int) *mgLevel {
	lv := &mgLevel{nx: nx, ny: ny, nl: nl, m: m}
	for l := 0; l < nl; l++ {
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				i := int32((l*ny+iy)*nx + ix)
				if (ix+iy+l)%2 == 0 {
					lv.red = append(lv.red, i)
				} else {
					lv.black = append(lv.black, i)
				}
			}
		}
	}
	return lv
}

// Aggregate returns the piecewise-constant aggregation map from a fine
// nx-by-ny-by-nl grid onto a coarse cnx-by-cny grid with the same nl layers:
// out[i] is the coarse node of fine node i, both in the (l*ny+iy)*nx + ix
// layout of NewStencil7. Fine cell ix lands in coarse cell ix*cnx/nx (the
// proportional map), which for cnx = ceil(nx/2) is exactly the 2x-coarsened
// aggregate map of the MG hierarchy — MG's buildCoarsening and the adaptive
// sweep's restriction of the baseline power map onto its coarse thermal
// grid both go through it, so a downsampled operator and the hierarchy's
// own coarse levels agree on which fine cells pool together.
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
// order (float addition order is fixed, so the result is reproducible). This
// is the restriction MG's cycle applies to residuals, exported for callers
// that downsample grid-shaped data (power maps) with the same operator.
func Restrict(fine []float64, parent []int32, coarse []float64) {
	for i := range coarse {
		coarse[i] = 0
	}
	for i, p := range parent {
		coarse[p] += fine[i]
	}
}

// buildCoarsening computes the aggregate map onto coarse and the Galerkin
// scatter target of every fine off-diagonal entry. It reports an error —
// rather than panicking — when the matrix is not the 7-point stencil of the
// claimed grid (every crossing link of a true stencil lands on a 7-point
// coarse neighbour by construction, so a miss means the caller's geometry
// and matrix disagree).
func (lv *mgLevel) buildCoarsening(coarse *mgLevel) error {
	lv.parent = Aggregate(lv.nx, lv.ny, lv.nl, coarse.nx, coarse.ny)
	cm := coarse.m
	lv.offTarget = make([]int32, len(lv.m.Col))
	for i := 0; i < lv.m.N; i++ {
		pi := lv.parent[i]
		for k := lv.m.RowPtr[i]; k < lv.m.RowPtr[i+1]; k++ {
			pj := lv.parent[lv.m.Col[k]]
			if pi == pj {
				lv.offTarget[k] = ^pi
				continue
			}
			t := int32(-1)
			for ck := cm.RowPtr[pi]; ck < cm.RowPtr[pi+1]; ck++ {
				if cm.Col[ck] == pj {
					t = ck
					break
				}
			}
			if t < 0 {
				return fmt.Errorf("sparse: MG coarse entry (%d,%d) missing: matrix is not the 7-point stencil of a %dx%dx%d grid",
					pi, pj, lv.nx, lv.ny, lv.nl)
			}
			lv.offTarget[k] = t
		}
	}
	return nil
}

// Refresh rebuilds the coarse-level operators from the current fine-matrix
// values (Galerkin products level by level) and refactorizes the coarsest
// level. Call it after every in-place change to the fine matrix values.
func (g *MG) Refresh() error {
	for l := 0; l+1 < len(g.levels); l++ {
		fine, coarse := g.levels[l], g.levels[l+1]
		cd, cv := coarse.m.Diag, coarse.m.Val
		for i := range cd {
			cd[i] = 0
		}
		for i := range cv {
			cv[i] = 0
		}
		for i, p := range fine.parent {
			cd[p] += fine.m.Diag[i]
		}
		for k, t := range fine.offTarget {
			if t >= 0 {
				cv[t] += fine.m.Val[k]
			} else {
				cd[^t] += fine.m.Val[k]
			}
		}
	}
	if err := g.levels[len(g.levels)-1].factorize(); err != nil {
		return &fault.ErrSetup{Stage: "factorize", Err: err}
	}
	return nil
}

// factorize computes the dense Cholesky factor of the coarsest operator.
func (lv *mgLevel) factorize() error {
	n := lv.m.N
	a := lv.chol
	for i := range a {
		a[i] = 0
	}
	for i := 0; i < n; i++ {
		a[i*n+i] = lv.m.Diag[i]
		for k := lv.m.RowPtr[i]; k < lv.m.RowPtr[i+1]; k++ {
			a[i*n+int(lv.m.Col[k])] = lv.m.Val[k]
		}
	}
	// In-place lower Cholesky.
	for j := 0; j < n; j++ {
		d := a[j*n+j]
		for k := 0; k < j; k++ {
			d -= a[j*n+k] * a[j*n+k]
		}
		if d <= 0 {
			return fmt.Errorf("sparse: MG coarsest level not positive definite (pivot %d: %g)", j, d)
		}
		d = math.Sqrt(d)
		a[j*n+j] = d
		for i := j + 1; i < n; i++ {
			s := a[i*n+j]
			for k := 0; k < j; k++ {
				s -= a[i*n+k] * a[j*n+k]
			}
			a[i*n+j] = s / d
		}
	}
	return nil
}

// solveDirect solves the coarsest system by forward/back substitution.
func (lv *mgLevel) solveDirect(b, x []float64) {
	n := lv.m.N
	a := lv.chol
	// L y = b
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= a[i*n+k] * x[k]
		}
		x[i] = s / a[i*n+i]
	}
	// Lᵀ x = y
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= a[k*n+i] * x[k]
		}
		x[i] = s / a[i*n+i]
	}
}

// apply runs one W-cycle on r: z = B·r with B the fixed SPD multigrid
// operator. r is left untouched. A cancelable context is checked at every
// level entry of the (recursive) cycle, so an abort lands within one
// smoothing sweep of the context firing even on the largest grids; it
// returns an error matching fault.ErrCanceled and leaves z unspecified, and
// the enclosing CG iteration discards it and aborts. A context that can
// never fire runs the uninstrumented cycle.
func (g *MG) apply(ctx context.Context, r, z []float64) error {
	if ctx.Done() == nil {
		g.cycle(0, r, z)
		return nil
	}
	g.ctx, g.ctxErr = ctx, nil
	g.cycle(0, r, z)
	err := g.ctxErr
	g.ctx, g.ctxErr = nil, nil
	return err
}

// cycle runs the W-cycle at one level: x = (approximate A⁻¹)·b with a zero
// initial iterate.
func (g *MG) cycle(l int, b, x []float64) {
	if g.ctx != nil {
		if g.ctxErr != nil {
			return // already aborted: unwind without more work
		}
		if cerr := g.ctx.Err(); cerr != nil {
			g.ctxErr = fault.Canceled(cerr)
			return
		}
	}
	lv := g.levels[l]
	if lv.chol != nil {
		lv.solveDirect(b, x)
		return
	}
	// The cycle starts from a zero iterate, so the first red half-sweep
	// collapses to x = b/diag; it writes every red row and the black
	// half-sweep only reads red neighbours (the stencil is bipartite), so
	// no explicit zeroing of x is needed.
	lv.zeroRed(b, x)
	lv.gsPass(b, x, black)
	lv.residual(b, x, lv.r)
	next := g.levels[l+1]
	Restrict(lv.r, lv.parent, next.b)
	g.cycle(l+1, next.b, next.x)
	if next.chol == nil {
		// W-cycle: a second correction against the coarse residual. The
		// compound step v + M(b - Av) is still a fixed symmetric
		// positive-definite operator (error propagation (I-MA)²), so CG
		// stays valid.
		next.residual(next.b, next.x, next.r2)
		g.cycle(l+1, next.r2, next.x2)
		for i, v := range next.x2 {
			next.x[i] += v
		}
	}
	lv.prolong(x, next.x)
	lv.gsPass(b, x, black)
	lv.gsPass(b, x, red)
}

// Color classes of the red-black smoother.
const (
	red = iota
	black
)

// zeroRed runs the zero-iterate shortcut of the first red half-sweep.
func (lv *mgLevel) zeroRed(b, x []float64) {
	if lv.pool.Parallel(lv.kw) {
		lv.curB, lv.curX = b, x
		lv.pool.Run(lv.kw, lv.zeroRedTask)
		return
	}
	for _, i := range lv.red {
		x[i] = b[i] / lv.m.Diag[i]
	}
}

// gsPass runs one Gauss-Seidel half-sweep over the given color class,
// partitioned across the pool workers on levels that carry one. Rows of one
// color only read the other color's entries, so the result is identical for
// any partition.
func (lv *mgLevel) gsPass(b, x []float64, color int) {
	if lv.pool.Parallel(lv.kw) {
		lv.curB, lv.curX = b, x
		if color == red {
			lv.pool.Run(lv.kw, lv.redTask)
		} else {
			lv.pool.Run(lv.kw, lv.blackTask)
		}
		return
	}
	if color == red {
		lv.gsRows(b, x, lv.red)
	} else {
		lv.gsRows(b, x, lv.black)
	}
}

// gsRows applies the Gauss-Seidel update to the given rows.
func (lv *mgLevel) gsRows(b, x []float64, rows []int32) {
	m := lv.m
	for _, i := range rows {
		s := b[i]
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s -= m.Val[k] * x[m.Col[k]]
		}
		x[i] = s / m.Diag[i]
	}
}

// residual computes r = b - A*x, row-partitioned on pooled levels.
func (lv *mgLevel) residual(b, x, r []float64) {
	if lv.pool.Parallel(lv.kw) {
		lv.curB, lv.curX, lv.curR = b, x, r
		lv.pool.Run(lv.kw, lv.residTask)
		return
	}
	lv.m.residualRange(b, x, r, 0, lv.m.N)
}

// prolong adds the coarse correction back onto the fine iterate.
func (lv *mgLevel) prolong(x, coarseX []float64) {
	if lv.pool.Parallel(lv.kw) {
		lv.curX, lv.curCX = x, coarseX
		lv.pool.Run(lv.kw, lv.prolongTask)
		return
	}
	for i, p := range lv.parent {
		x[i] += coarseX[p]
	}
}

package sparse

import (
	"context"
	"fmt"
	"math"

	"thermplace/internal/fault"
)

// minRowsPerWorker keeps the per-iteration synchronization cost well below
// the arithmetic cost of a worker's row range.
const minRowsPerWorker = 4096

// padStride spaces the per-worker partial sums one cache line apart.
const padStride = 8

// CG is a reusable preconditioned conjugate-gradient solver bound to one
// operator and to its caller's worker pool. The scratch vectors and the
// per-op tasks live as long as the solver, so repeated warm-started
// re-solves allocate nothing but the goroutines each parallel op forks and
// joins. A CG value is not safe for concurrent use.
type CG struct {
	a   *Stencil
	tol float64

	r, z, p, ap []float64

	// Per-solve state shared with the workers. Pool.Run's fork and join
	// order writes to alpha/beta/b/x before the workers read them.
	b, x        []float64
	alpha, beta float64

	workers int
	bounds  []int
	// pool runs the partitioned ops; tasks is one prebuilt closure per op
	// code so a solve allocates nothing per iteration.
	pool  *Pool
	tasks [opCount]func(w int) float64
}

// Worker op codes.
const (
	opResidual = iota // r = b - A*x, partial r·r
	opMatVec          // ap = A*p
	opDotPAp          // partial p·ap
	opUpdateXR        // x += alpha*p, r -= alpha*ap, partial r·r
	opPrecond         // z = r / diag, partial r·z
	opUpdateP         // p = z + beta*p
	opDotRZ           // partial r·z (spectral preconditioner)
	opCount
)

// NewCG builds a solver for the operator a whose matrix-vector products and
// reductions run on pool, split over min(pool.Workers(), n) workers for n
// nodes. tol is the relative residual ||b - A*x|| / ||b|| at which a solve
// stops; tol <= 0 means 1e-9. The operator's values may change between
// solves (for example when the grid geometry changes).
func NewCG(a *Stencil, pool *Pool, tol float64) *CG {
	if tol <= 0 {
		tol = 1e-9
	}
	n := len(a.Diag)
	c := &CG{
		a:       a,
		tol:     tol,
		r:       make([]float64, n),
		z:       make([]float64, n),
		p:       make([]float64, n),
		ap:      make([]float64, n),
		workers: min(pool.Workers(), n),
		pool:    pool,
	}
	if c.workers > 1 {
		c.bounds = chunkBounds(n, c.workers)
		for op := 0; op < opCount; op++ {
			op := op
			c.tasks[op] = func(w int) float64 {
				return c.runRange(op, c.bounds[w], c.bounds[w+1])
			}
		}
	}
	return c
}

// SolveCtx solves A*x = b, using the incoming contents of x as the initial
// guess (warm start), within budget iterations. pre preconditions the
// iteration; nil selects the fused Jacobi (diagonal) preconditioner. On
// success x holds the solution; it returns the iteration count and the final
// relative residual, or a fault.ErrNotConverged once the budget is spent.
//
// The context is checked once per CG iteration, so even a large solve
// aborts within one matrix-vector product and one preconditioner apply of
// the context firing. An abort returns an error matching fault.ErrCanceled
// and leaves x mid-iteration — do not warm-start from it. A context that
// never fires costs nothing and changes no bit.
//
// A panic inside the solve — in a worker task, or in the preconditioner —
// is contained and returned as a located *fault.ErrPanic instead of
// crashing the caller; the solver remains usable.
func (c *CG) SolveCtx(ctx context.Context, b, x []float64, pre *Spectral, budget int) (iters int, residual float64, err error) {
	defer func() {
		if v := recover(); v != nil {
			iters, residual = 0, 0
			err = fault.Recovered("sparse.CG.Solve", v)
		}
	}()
	n := len(c.r)
	if len(b) != n || len(x) != n {
		return 0, 0, fmt.Errorf("sparse: vector length %d/%d does not match operator size %d", len(b), len(x), n)
	}
	bnorm2 := 0.0
	for _, v := range b {
		bnorm2 += v * v
	}
	if bnorm2 == 0 {
		// A is positive definite, so the unique solution is x = 0.
		for i := range x {
			x[i] = 0
		}
		return 0, 0, nil
	}
	bnorm := math.Sqrt(bnorm2)

	c.b, c.x = b, x
	defer func() { c.b, c.x = nil, nil }()

	// done != nil only for cancelable contexts: Background/TODO skip the
	// per-iteration check entirely, keeping the never-fires path free.
	done := ctx.Done()

	rr := c.run(opResidual)
	residual = math.Sqrt(rr) / bnorm
	if residual <= c.tol {
		return 0, residual, nil
	}
	rz := c.precond(pre)
	copy(c.p, c.z)
	for iters = 1; iters <= budget; iters++ {
		if done != nil {
			if cerr := ctx.Err(); cerr != nil {
				return iters - 1, residual, fault.Canceled(cerr)
			}
		}
		c.run(opMatVec)
		pap := c.run(opDotPAp)
		if pap <= 0 {
			return iters, residual, fmt.Errorf("sparse: CG breakdown (non-positive curvature); operator not positive definite")
		}
		c.alpha = rz / pap
		rr = c.run(opUpdateXR)
		residual = math.Sqrt(rr) / bnorm
		if residual <= c.tol {
			return iters, residual, nil
		}
		rzNew := c.precond(pre)
		c.beta = rzNew / rz
		rz = rzNew
		c.run(opUpdateP)
	}
	return budget, residual, fmt.Errorf("sparse: CG: %w",
		&fault.ErrNotConverged{Iters: budget, Residual: residual})
}

// precond computes z = M⁻¹r and returns r·z: fused with the reduction for
// Jacobi (pre nil), a spectral apply plus a reduction pass otherwise.
func (c *CG) precond(pre *Spectral) float64 {
	if pre == nil {
		return c.run(opPrecond)
	}
	pre.apply(c.r, c.z)
	return c.run(opDotRZ)
}

// chunkBounds splits [0, n) into k contiguous ranges.
func chunkBounds(n, k int) []int {
	b := make([]int, k+1)
	for i := 0; i <= k; i++ {
		b[i] = i * n / k
	}
	return b
}

// run executes one op over all nodes, either inline or on the worker pool,
// and returns the summed partial result (0 for ops without a reduction).
func (c *CG) run(op int) float64 {
	if !c.pool.Parallel(c.workers) {
		return c.runRange(op, 0, len(c.r))
	}
	return c.pool.Run(c.workers, c.tasks[op])
}

// runRange executes one op over nodes [lo, hi) and returns its partial sum.
func (c *CG) runRange(op, lo, hi int) float64 {
	switch op {
	case opResidual:
		return c.a.residualRange(c.b, c.x, c.r, lo, hi)
	case opMatVec:
		c.a.matVecRange(c.p, c.ap, lo, hi)
	case opDotPAp:
		s := 0.0
		for i := lo; i < hi; i++ {
			s += c.p[i] * c.ap[i]
		}
		return s
	case opUpdateXR:
		alpha, s := c.alpha, 0.0
		x, r, p, ap := c.x, c.r, c.p, c.ap
		for i := lo; i < hi; i++ {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
			s += r[i] * r[i]
		}
		return s
	case opPrecond:
		s := 0.0
		r, z, diag := c.r, c.z, c.a.Diag
		for i := lo; i < hi; i++ {
			z[i] = r[i] / diag[i]
			s += r[i] * z[i]
		}
		return s
	case opUpdateP:
		beta := c.beta
		p, z := c.p, c.z
		for i := lo; i < hi; i++ {
			p[i] = z[i] + beta*p[i]
		}
	case opDotRZ:
		s := 0.0
		r, z := c.r, c.z
		for i := lo; i < hi; i++ {
			s += r[i] * z[i]
		}
		return s
	}
	return 0
}

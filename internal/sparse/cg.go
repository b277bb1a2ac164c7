package sparse

import (
	"context"
	"fmt"
	"math"

	"thermplace/internal/fault"
)

// Preconditioner approximates the inverse of the solver's matrix. Apply must
// implement a fixed symmetric positive-definite linear operation (the same
// operator on every call) for the preconditioned conjugate-gradient
// iteration to converge; warm state of any kind inside Apply would silently
// break CG's orthogonality recurrences.
type Preconditioner interface {
	// Apply sets z ≈ A⁻¹r. r must not be modified.
	Apply(r, z []float64)
}

// CtxPreconditioner is a Preconditioner that can abort mid-application when
// a context fires. SolveCtx prefers ApplyCtx when the preconditioner
// implements it, so a cancellation lands inside an expensive application
// (e.g. between multigrid cycles) rather than only between CG iterations.
// When the context never fires, ApplyCtx must be exactly Apply.
type CtxPreconditioner interface {
	Preconditioner
	// ApplyCtx sets z ≈ A⁻¹r, or returns a fault.ErrCanceled-matching error
	// (leaving z unspecified) once ctx fires.
	ApplyCtx(ctx context.Context, r, z []float64) error
}

// CGOptions tunes the conjugate-gradient solver.
type CGOptions struct {
	// Tolerance is the relative residual ||b - A*x|| / ||b|| at which the
	// iteration stops. Zero means the default of 1e-9.
	Tolerance float64
	// MaxIterations bounds the iteration count. Zero means 10*N.
	MaxIterations int
	// Workers is the number of goroutines used for matrix-vector products
	// and reductions; an explicit value is honored as given (clamped to the
	// shared Pool's size when one is supplied). Zero picks GOMAXPROCS,
	// capped so every worker owns at least minRowsPerWorker rows. 1 runs
	// everything on the calling goroutine.
	Workers int
	// Precond replaces the built-in Jacobi (diagonal) preconditioner. The
	// multigrid preconditioner in this package (MG) drops the iteration
	// count of large structured systems several-fold; nil keeps Jacobi.
	Precond Preconditioner
	// Pool is an existing worker pool to run on, so a solver stack (CG plus
	// a multigrid preconditioner) shares one set of goroutines. Nil makes
	// the CG own a private pool, released by Close; a shared pool is left
	// running — its owner closes it.
	Pool *Pool
}

// minRowsPerWorker keeps the per-iteration synchronization cost well below
// the arithmetic cost of a worker's row range.
const minRowsPerWorker = 4096

// padStride spaces the per-worker partial sums one cache line apart.
const padStride = 8

// CG is a reusable preconditioned conjugate-gradient solver bound to one
// matrix (Jacobi by default, or the Preconditioner given in the options).
// The scratch vectors and the worker pool live as long as the solver: the
// pool goroutines are started on the first parallel Solve and then parked
// between solves, so repeated warm-started re-solves pay neither allocation
// nor goroutine startup. Call Close to release the pool when the solver is
// no longer needed; a closed solver still works, serially. A CG value is
// not safe for concurrent use.
type CG struct {
	m   *SymCSR
	opt CGOptions

	r, z, p, ap []float64

	// Per-solve state shared with the workers. The barrier in Pool.Run
	// orders writes to alpha/beta/b/x before the workers read them.
	b, x        []float64
	alpha, beta float64

	workers int
	bounds  []int
	// pool runs the partitioned ops; tasks is one prebuilt closure per op
	// code so a solve allocates nothing per iteration. ownPool marks a
	// private pool that Close releases (a shared pool outlives the CG).
	pool    *Pool
	ownPool bool
	tasks   [opCount]func(w int) float64
}

// Worker op codes.
const (
	opResidual = iota // r = b - A*x, partial r·r
	opMatVec          // ap = A*p
	opDotPAp          // partial p·ap
	opUpdateXR        // x += alpha*p, r -= alpha*ap, partial r·r
	opPrecond         // z = r / diag, partial r·z
	opUpdateP         // p = z + beta*p
	opDotRZ           // partial r·z (external preconditioner)
	opCount
)

// NewCG builds a solver for m. The matrix may be modified between Solve
// calls (for example when the grid geometry changes) as long as its pattern
// dimensions stay the same.
func NewCG(m *SymCSR, opt CGOptions) *CG {
	if opt.Tolerance <= 0 {
		opt.Tolerance = 1e-9
	}
	if opt.MaxIterations <= 0 {
		opt.MaxIterations = 10 * m.N
	}
	w := opt.Workers
	if w <= 0 {
		w = AutoWorkers(m.N)
	}
	if opt.Pool != nil && w > opt.Pool.Workers() {
		w = opt.Pool.Workers()
	}
	if w > m.N {
		w = m.N
	}
	if w < 1 {
		w = 1
	}
	c := &CG{
		m:       m,
		opt:     opt,
		r:       make([]float64, m.N),
		z:       make([]float64, m.N),
		p:       make([]float64, m.N),
		ap:      make([]float64, m.N),
		workers: w,
	}
	if w > 1 {
		c.bounds = chunkBounds(m.N, w)
		if opt.Pool != nil {
			c.pool = opt.Pool
		} else {
			c.pool = NewPool(w)
			c.ownPool = true
		}
		for op := 0; op < opCount; op++ {
			op := op
			c.tasks[op] = func(w int) float64 {
				return c.runRange(op, c.bounds[w], c.bounds[w+1])
			}
		}
	}
	return c
}

// Workers returns the degree of parallelism the solver settled on.
func (c *CG) Workers() int { return c.workers }

// SetPrecond replaces the preconditioner for subsequent solves (nil restores
// the built-in Jacobi). The thermal solver's degradation path uses it to
// retry a non-converged multigrid preconditioned solve on plain Jacobi.
func (c *CG) SetPrecond(p Preconditioner) { c.opt.Precond = p }

// MaxIterations returns the current iteration budget.
func (c *CG) MaxIterations() int { return c.opt.MaxIterations }

// SetMaxIterations replaces the iteration budget for subsequent solves;
// n <= 0 is ignored.
func (c *CG) SetMaxIterations(n int) {
	if n > 0 {
		c.opt.MaxIterations = n
	}
}

// Close stops the persistent worker goroutines of a privately owned pool
// (a shared CGOptions.Pool is left running for its owner to close).
// Subsequent Solve calls still work but run serially on the calling
// goroutine. Close is idempotent.
func (c *CG) Close() {
	if c.ownPool {
		c.pool.Close()
	}
}

// Solve solves A*x = b, using the incoming contents of x as the initial
// guess (warm start). On success x holds the solution; it returns the
// iteration count and the final relative residual. It is SolveCtx with a
// context that never fires.
func (c *CG) Solve(b, x []float64) (iters int, residual float64, err error) {
	return c.SolveCtx(context.Background(), b, x)
}

// SolveCtx is Solve with cancellation: the context is checked once per CG
// iteration (and, with a CtxPreconditioner, once per preconditioner cycle),
// so even a large solve aborts within a few matrix-vector products of the
// context firing. An abort returns an error matching fault.ErrCanceled and
// leaves x mid-iteration — do not warm-start from it. When the context never
// fires, the iteration is bit-identical to Solve.
//
// A panic inside the solve — in a worker task, or in the preconditioner —
// is contained and returned as a located *fault.ErrPanic instead of
// crashing the caller; the solver and its pool remain usable.
func (c *CG) SolveCtx(ctx context.Context, b, x []float64) (iters int, residual float64, err error) {
	defer func() {
		if v := recover(); v != nil {
			iters, residual = 0, 0
			err = fault.Recovered("sparse.CG.Solve", v)
		}
	}()
	n := c.m.N
	if len(b) != n || len(x) != n {
		return 0, 0, fmt.Errorf("sparse: vector length %d/%d does not match matrix size %d", len(b), len(x), n)
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
	if residual <= c.opt.Tolerance {
		return 0, residual, nil
	}
	rz, perr := c.precond(ctx)
	if perr != nil {
		return 0, residual, perr
	}
	copy(c.p, c.z)
	for iters = 1; iters <= c.opt.MaxIterations; iters++ {
		if done != nil {
			if cerr := ctx.Err(); cerr != nil {
				return iters - 1, residual, fault.Canceled(cerr)
			}
		}
		c.run(opMatVec)
		pap := c.run(opDotPAp)
		if pap <= 0 {
			return iters, residual, fmt.Errorf("sparse: CG breakdown (non-positive curvature); matrix not positive definite")
		}
		c.alpha = rz / pap
		rr = c.run(opUpdateXR)
		residual = math.Sqrt(rr) / bnorm
		if residual <= c.opt.Tolerance {
			return iters, residual, nil
		}
		rzNew, perr := c.precond(ctx)
		if perr != nil {
			return iters, residual, perr
		}
		c.beta = rzNew / rz
		rz = rzNew
		c.run(opUpdateP)
	}
	return c.opt.MaxIterations, residual, fmt.Errorf("sparse: CG: %w",
		&fault.ErrNotConverged{Iters: c.opt.MaxIterations, Residual: residual})
}

// precond computes z = M⁻¹r and returns r·z: fused with the reduction for
// the built-in Jacobi, a preconditioner call plus a reduction pass
// otherwise. A CtxPreconditioner is given the context so cancellation can
// land between its internal cycles.
func (c *CG) precond(ctx context.Context) (float64, error) {
	if c.opt.Precond == nil {
		return c.run(opPrecond), nil
	}
	if cp, ok := c.opt.Precond.(CtxPreconditioner); ok && ctx.Done() != nil {
		if err := cp.ApplyCtx(ctx, c.r, c.z); err != nil {
			return 0, err
		}
	} else {
		c.opt.Precond.Apply(c.r, c.z)
	}
	return c.run(opDotRZ), nil
}

// run executes one op over all rows, either inline or on the worker pool,
// and returns the summed partial result (0 for ops without a reduction).
func (c *CG) run(op int) float64 {
	if !c.pool.Parallel(c.workers) {
		return c.runRange(op, 0, c.m.N)
	}
	return c.pool.Run(c.workers, c.tasks[op])
}

// runRange executes one op over rows [lo, hi) and returns its partial sum.
func (c *CG) runRange(op, lo, hi int) float64 {
	switch op {
	case opResidual:
		return c.m.residualRange(c.b, c.x, c.r, lo, hi)
	case opMatVec:
		c.m.matVecRange(c.p, c.ap, lo, hi)
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
		r, z, diag := c.r, c.z, c.m.Diag
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

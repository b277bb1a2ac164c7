package thermal

import (
	"context"
	"errors"
	"fmt"
	"math"

	"thermplace/internal/fault"
	"thermplace/internal/geom"
	"thermplace/internal/sparse"
)

// Solver is the structured-grid fast path: the steady-state thermal system
// of a (NX x NY x layers) grid held as a matrix-free 7-point stencil (one
// lateral conductance per layer and axis, one vertical conductance per
// layer interface and a per-node diagonal), with no string node names, no
// netlist and no maps anywhere on the solve path.
//
// A Solver is built once per grid topology and reused across analyses: a
// new power map only refreshes the right-hand side, and a new die region
// (the sweep strategies grow the core, which changes the cell size and
// hence every conductance) only refreshes the stencil's values in place.
// Each solve warm-starts the conjugate-gradient iteration from the previous
// temperature field; with the spectral preconditioner that saves little
// (on the Figure 6 sweep, 4.3 iterations per point against 5 from ambient).
//
// Node (l, ix, iy) has index (l*NY+iy)*NX + ix, so a layer is a contiguous
// NX*NY block laid out exactly like geom.Grid: the result's surface map is a
// plain copy of the power layer's block, and State returns the whole field.
type Solver struct {
	cfg        Config
	nx, ny, nl int
	n          int // nx*ny*nl unknowns
	powerLayer int

	// cellW/cellH are the die-cell dimensions (um) the stencil values were
	// assembled for; a solve against a region with different cell sizes
	// triggers a value refresh.
	cellW, cellH float64

	op   *sparse.Stencil
	cg   *sparse.CG
	pool *sparse.Pool
	// pre is the spectral preconditioner; fillValues refactors it with the
	// stencil values. Only the package's Jacobi reference tests clear it,
	// which runs every solve on Jacobi.
	pre *sparse.Spectral
	// ambRHS is the constant ambient part of the right-hand side
	// (conductance to ambient times ambient temperature, per node).
	ambRHS []float64
	rhs    []float64
	// x is the temperature field of the previous solve, kept as the CG
	// warm-start guess; xPrev snapshots it before every solve, so a Jacobi
	// retry starts from the same warm start as the failed attempt.
	x     []float64
	xPrev []float64
	warm  bool
}

// raisedBudgetFactor multiplies the CG iteration budget (10 iterations per
// unknown) on the Jacobi retry: without the spectral preconditioner the
// iteration count grows with the grid resolution, so the retry gets more
// room before reporting ErrNotConverged.
const raisedBudgetFactor = 4

// NewSolver validates the configuration and allocates the stencil and the
// spectral preconditioner. Their values are filled on the first Solve,
// when the die region (and so the cell size) is known.
func NewSolver(cfg Config) (*Solver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Snapshot the stack: the caller's slice may be mutated in place after
	// construction, and fillValues re-reads it on every geometry change.
	cfg.Stack = append(Stack(nil), cfg.Stack...)
	s := &Solver{
		cfg:        cfg,
		nx:         cfg.NX,
		ny:         cfg.NY,
		nl:         len(cfg.Stack),
		n:          cfg.NX * cfg.NY * len(cfg.Stack),
		powerLayer: cfg.Stack.PowerLayer(),
	}
	s.op = sparse.NewStencil(s.nx, s.ny, s.nl)
	s.ambRHS = make([]float64, s.n)
	s.rhs = make([]float64, s.n)
	s.x = make([]float64, s.n)
	s.xPrev = make([]float64, s.n)
	// One worker pool serves the whole solver stack: the CG iteration ops
	// and the preconditioner's passes split over the same workers.
	s.pool = sparse.NewPool(sparse.AutoWorkers(s.n))
	s.pre = sparse.NewSpectral(s.op, s.pool)
	s.cg = sparse.NewCG(s.op, s.pool, cfg.Tolerance)
	return s, nil
}

// index returns the unknown index of thermal cell (ix, iy) in layer l.
func (s *Solver) index(l, ix, iy int) int { return (l*s.ny+iy)*s.nx + ix }

// fillValues assembles the conductances for the given cell size, writing
// the stencil's values and the ambient right-hand-side contribution in
// place, and refactors the spectral preconditioner from the same stencil.
// The element formulas are exactly those of BuildNetwork, so the fast path
// and the SPICE oracle solve the same linear system.
func (s *Solver) fillValues(cellW, cellH float64) {
	s.cellW, s.cellH = cellW, cellH
	dx := cellW * metersPerUm
	dy := cellH * metersPerUm
	cellArea := dx * dy
	cfg := &s.cfg
	a := s.op

	// Per-layer lateral conductances and per-interface vertical
	// conductances (GZ[l] between layer l and l+1).
	// gDiag is each layer's conductance to ambient per cell, with the side
	// faces' total spread evenly over the layer: the preconditioner's
	// uniform stand-in for the perimeter terms the stencil's diagonal
	// carries. Without it a side-only configuration would leave the uniform
	// mode singular.
	gDiag := make([]float64, s.nl)
	for l, layer := range cfg.Stack {
		dz := layer.Thickness * metersPerUm
		k := layer.Conductivity
		a.GX[l] = 1 / (dx / (k * dy * dz))
		a.GY[l] = 1 / (dy / (k * dx * dz))
		if l+1 < s.nl {
			up := cfg.Stack[l+1]
			rVert := (dz/2)/(k*cellArea) + (up.Thickness*metersPerUm/2)/(up.Conductivity*cellArea)
			a.GZ[l] = 1 / rVert
		}
	}

	for l, layer := range cfg.Stack {
		dz := layer.Thickness * metersPerUm
		kc := layer.Conductivity
		var gBot, gTop, gSideX, gSideY float64
		if l == 0 && cfg.HBottom > 0 {
			gBot = 1 / ((dz/2)/(kc*cellArea) + 1/(cfg.HBottom*cellArea))
		}
		if l == s.nl-1 && cfg.HTop > 0 {
			gTop = 1 / ((dz/2)/(kc*cellArea) + 1/(cfg.HTop*cellArea))
		}
		if cfg.HSide > 0 {
			faceX := dy * dz
			gSideX = 1 / ((dx/2)/(kc*faceX) + 1/(cfg.HSide*faceX))
			faceY := dx * dz
			gSideY = 1 / ((dy/2)/(kc*faceY) + 1/(cfg.HSide*faceY))
		}
		gDiag[l] = gBot + gTop + (2*float64(s.ny)*gSideX+2*float64(s.nx)*gSideY)/float64(s.nx*s.ny)
		for iy := 0; iy < s.ny; iy++ {
			for ix := 0; ix < s.nx; ix++ {
				i := s.index(l, ix, iy)
				diag := 0.0
				// The links in the stencil's order: z-1, y-1, x-1, x+1,
				// y+1, z+1.
				if l > 0 {
					diag += a.GZ[l-1]
				}
				if iy > 0 {
					diag += a.GY[l]
				}
				if ix > 0 {
					diag += a.GX[l]
				}
				if ix+1 < s.nx {
					diag += a.GX[l]
				}
				if iy+1 < s.ny {
					diag += a.GY[l]
				}
				if l+1 < s.nl {
					diag += a.GZ[l]
				}
				// Ambient boundaries add to the diagonal and to the
				// constant RHS part.
				gAmb := 0.0
				if l == 0 {
					gAmb += gBot
				}
				if l == s.nl-1 {
					gAmb += gTop
				}
				if ix == 0 || ix == s.nx-1 {
					gAmb += gSideX
				}
				if iy == 0 || iy == s.ny-1 {
					gAmb += gSideY
				}
				a.Diag[i] = diag + gAmb
				s.ambRHS[i] = gAmb * cfg.AmbientC
			}
		}
	}
	if s.pre != nil {
		s.pre.Refresh(gDiag)
	}
}

// Solve runs one steady-state analysis for the power map, reusing the
// assembled structure and warm-starting from the previous solution. The
// power map must match the solver's NX x NY resolution; its region sets
// the physical cell size. It is SolveCtx with a context that never fires.
func (s *Solver) Solve(powerMap *geom.Grid) (*Result, error) {
	return s.SolveCtx(context.Background(), powerMap)
}

// SolveCtx is Solve with cancellation and fault tolerance:
//
//   - The context is threaded into the CG iteration (checked once per
//     iteration); an abort returns an error matching fault.ErrCanceled and
//     invalidates the warm start. When the context never fires the solve is
//     bit-identical to Solve.
//   - A preconditioned solve that fails to converge is retried once on the
//     Jacobi preconditioner with a raised iteration budget, from the same
//     warm start, before an ErrNotConverged is reported.
//   - A panic anywhere inside the solve (worker task, preconditioner) is
//     contained and returned as a located *fault.ErrPanic.
//
// Retries, cancellations and contained panics are counted in Config.Stats
// when one is wired.
func (s *Solver) SolveCtx(ctx context.Context, powerMap *geom.Grid) (res *Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			s.warm = false
			s.cfg.Stats.AddPanicContained()
			res = nil
			err = fmt.Errorf("thermal: solving %dx%dx%d system: %w",
				s.nx, s.ny, s.nl, fault.Recovered("thermal.Solver.Solve", v))
		}
	}()
	if err := s.cfg.checkPowerMap(powerMap); err != nil {
		return nil, err
	}

	solveN := s.cfg.Inject.NextSolve()
	if s.cfg.Inject.StallSolve(solveN) {
		// Injected stall: park until the caller cancels. A Background
		// context would park forever, which is exactly the hang the
		// injection simulates — the harness always arms it with a
		// cancelable context.
		<-ctx.Done()
	}
	if cerr := ctx.Err(); cerr != nil {
		s.cfg.Stats.AddCanceled()
		return nil, fmt.Errorf("thermal: solving %dx%dx%d system: %w",
			s.nx, s.ny, s.nl, fault.Canceled(cerr))
	}
	if s.cfg.Inject.PanicSolve(solveN) {
		s.injectPanic(solveN)
	}

	cellW, cellH := powerMap.CellW(), powerMap.CellH()
	if cellW != s.cellW || cellH != s.cellH {
		s.fillValues(cellW, cellH)
	}

	copy(s.rhs, s.ambRHS)
	nxy := s.nx * s.ny
	powerBase := s.powerLayer * nxy
	pw := powerMap.Values() // same iy*NX+ix layout as the solver's layers
	for c, p := range pw {
		if p != 0 {
			s.rhs[powerBase+c] += p
		}
	}

	if !s.warm {
		// First solve: the ambient temperature is a much better guess than
		// zero (the solution is ambient plus a few degrees of rise).
		for i := range s.x {
			s.x[i] = s.cfg.AmbientC
		}
		s.warm = true
	}

	// Snapshot the warm start so a Jacobi retry begins from the same guess
	// as the failed attempt, not from its diverged iterate.
	copy(s.xPrev, s.x)
	var (
		iters    int
		residual float64
		serr     error
		budget   = 10 * s.n
	)
	if s.cfg.Inject.FailSolve(solveN, 0) {
		serr = fmt.Errorf("sparse: CG: %w",
			&fault.ErrNotConverged{Iters: budget, Residual: math.Inf(1)})
	} else {
		iters, residual, serr = s.cg.SolveCtx(ctx, s.rhs, s.x, s.pre, budget)
	}
	var nc *fault.ErrNotConverged
	if serr != nil && errors.As(serr, &nc) {
		// Graceful degradation: one Jacobi retry with a raised budget.
		s.cfg.Stats.AddSolveRetry()
		copy(s.x, s.xPrev)
		if !s.cfg.Inject.FailSolve(solveN, 1) {
			iters, residual, serr = s.cg.SolveCtx(ctx, s.rhs, s.x, nil, raisedBudgetFactor*budget)
		}
	}
	if serr != nil {
		s.warm = false // do not warm-start from a failed iterate
		switch {
		case errors.Is(serr, fault.ErrCanceled):
			s.cfg.Stats.AddCanceled()
		default:
			var pe *fault.ErrPanic
			if errors.As(serr, &pe) {
				s.cfg.Stats.AddPanicContained()
			}
		}
		return nil, fmt.Errorf("thermal: solving %dx%dx%d system: %w", s.nx, s.ny, s.nl, serr)
	}

	surface := geom.NewGrid(s.nx, s.ny, powerMap.Region)
	copy(surface.Values(), s.x[powerBase:powerBase+nxy])
	return newResult(surface, s.cfg.AmbientC, iters, residual), nil
}

// injectPanic crashes the current solve on purpose (Injector.PanicCGSolveN):
// inside the last pool task when the solver runs parallel — a task on a
// goroutine Run started, exercising the pool's panic containment end to
// end — or directly on the calling goroutine when serial. Either way the
// panic is recovered by SolveCtx and surfaces as a located *fault.ErrPanic.
func (s *Solver) injectPanic(solveN int) {
	if w := s.pool.Workers(); s.pool.Parallel(w) {
		s.pool.Run(w, func(task int) float64 {
			if task == w-1 {
				panic(fmt.Sprintf("fault: injected panic inside pool task (solve %d)", solveN))
			}
			return 0
		})
		return
	}
	panic(fmt.Sprintf("fault: injected panic (solve %d)", solveN))
}

// State returns a copy of the temperature field of the last solve (the CG
// warm-start guess), or nil if the solver has not solved yet.
func (s *Solver) State() []float64 {
	if !s.warm {
		return nil
	}
	return append([]float64(nil), s.x...)
}

// SeedState overwrites the warm-start field with the given temperature
// field (length NX*NY*NL, solver node order). Seeding every solve from the
// same recorded field — rather than from whatever the solver happened to
// compute last — makes each solve a pure function of its inputs, which is
// what lets the concurrent sweep produce bit-identical results regardless
// of how points are scheduled across pooled solvers.
func (s *Solver) SeedState(field []float64) error {
	if len(field) != s.n {
		return fmt.Errorf("thermal: seed field length %d does not match %d unknowns", len(field), s.n)
	}
	copy(s.x, field)
	s.warm = true
	return nil
}

// Unknowns returns the size of the assembled linear system.
func (s *Solver) Unknowns() int { return s.n }

// Close does nothing: a solver holds no goroutines between solves. It is
// kept only because the perfbench module calls it.
func (s *Solver) Close() {}

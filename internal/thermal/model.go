package thermal

import (
	"context"
	"fmt"

	"thermplace/internal/fault"
	"thermplace/internal/geom"
	"thermplace/internal/sparse"
	"thermplace/internal/spice"
)

// PrecondKind selects the preconditioner of the structured-grid CG solver.
type PrecondKind int

const (
	// PrecondMG, the default, is the geometric multigrid W-cycle, whose
	// iteration count is essentially independent of the grid resolution.
	PrecondMG PrecondKind = iota
	// PrecondJacobi falls back to the diagonal preconditioner (the pre-MG
	// behaviour); its iteration count grows with the grid resolution.
	PrecondJacobi
)

// ParsePrecond maps a flag-style name (mg or jacobi) onto a PrecondKind.
// The commands exposing -precond share it.
func ParsePrecond(name string) (PrecondKind, error) {
	switch name {
	case "mg":
		return PrecondMG, nil
	case "jacobi":
		return PrecondJacobi, nil
	}
	return 0, fmt.Errorf("unknown preconditioner %q (want mg or jacobi)", name)
}

// Config describes one thermal analysis setup.
type Config struct {
	// NX and NY are the lateral grid resolution. The paper uses 40 x 40,
	// which puts fewer than ten standard cells under each measuring point.
	NX, NY int
	// CoarseFactor, when 2 or larger, downsamples the lateral resolution by
	// that factor: the operator is assembled and solved directly on a
	// ceil(NX/f) x ceil(NY/f) grid (never below 2x2). The aggregation is the
	// same piecewise-constant map the multigrid hierarchy coarsens with
	// (sparse.Aggregate), so at a power-of-two factor the coarse grid is
	// exactly an MG level of the full-resolution solve. Power maps may be
	// supplied either at the full NX x NY resolution — the solver restricts
	// them (sparse.Restrict, power-conserving) — or pre-binned at the coarse
	// dims. This is the cheap estimation mode of the adaptive sweep's triage
	// phase; values 0 and 1 mean full resolution.
	CoarseFactor int
	// Stack is the vertical layer stack.
	Stack Stack
	// AmbientC is the ambient temperature in degrees Celsius.
	AmbientC float64
	// HBottom, HTop and HSide are the effective heat-transfer coefficients
	// (W/(m^2*K)) from the bottom layer, top layer and lateral faces of the
	// model to ambient. They lump the package, heat sink and board paths.
	HBottom, HTop, HSide float64
	// Solver selects the linear solver used on the thermal network.
	Solver spice.Method
	// Tolerance is the iterative-solver relative residual target
	// (0 = solver default).
	Tolerance float64
	// Precond selects the fast-path CG preconditioner; the zero value picks
	// multigrid. It has no effect on the SPICE path.
	Precond PrecondKind
	// SurfaceOnly skips materializing the temperature maps of the
	// non-power layers: Result.Layers keeps only the power-injection layer
	// (the entry Surface aliases) and leaves the rest nil. The sweep flow
	// only ever reads Surface, so it sets this to avoid copying NL-1 grids
	// per solve.
	SurfaceOnly bool
	// UseSpice forces the legacy path that builds a string-named SPICE
	// circuit and solves it with package spice. It exists as a
	// cross-validation oracle for the structured-grid fast path (the
	// default whenever Solver is MethodCG) and for SPICE deck export
	// workflows; it is roughly an order of magnitude slower.
	UseSpice bool
	// Stats, when non-nil, receives the solver's robustness counters:
	// multigrid setup failures degraded to Jacobi, non-converged solves
	// retried on the fallback, contained panics, canceled solves. The flow
	// wires its own per-flow Stats into every pooled solver.
	Stats *fault.Stats
	// Inject, when non-nil, arms the deterministic fault-injection probe
	// points of package fault on this solver's solves. Test wiring only;
	// set it before the first solve.
	Inject *fault.Injector
}

// FastPath reports whether the configuration is served by the
// structured-grid CSR solver instead of the SPICE-circuit path. The
// Gauss-Seidel and dense oracle methods always go through package spice.
func (cfg Config) FastPath() bool { return !cfg.UseSpice && cfg.Solver == spice.MethodCG }

// coarseFactor returns the normalized downsampling factor: 1 for the full
// resolution (CoarseFactor 0 or 1), the factor itself otherwise.
func (cfg Config) coarseFactor() int {
	if cfg.CoarseFactor < 2 {
		return 1
	}
	return cfg.CoarseFactor
}

// GridDims returns the lateral resolution the system is actually assembled
// and solved at: NX x NY at full fidelity, ceil(NX/f) x ceil(NY/f) (clamped
// to at least 2x2) with CoarseFactor f. Everything downstream of the
// configuration — matrix assembly, the SPICE oracle, result maps — uses
// these dims, so a coarse solve is simply a solve of a smaller model over
// the same physical region.
func (cfg Config) GridDims() (nx, ny int) {
	f := cfg.coarseFactor()
	nx = (cfg.NX + f - 1) / f
	ny = (cfg.NY + f - 1) / f
	if nx < 2 {
		nx = 2
	}
	if ny < 2 {
		ny = 2
	}
	return nx, ny
}

// Equal reports whether two configurations describe the same thermal model
// and solver setup; package flow uses it to decide whether a cached Solver
// can be reused. The Stats and Inject wiring is deliberately ignored: both
// are observability/test attachments the owner re-applies identically to
// every solver it builds, not part of the model.
func (cfg Config) Equal(o Config) bool {
	if cfg.NX != o.NX || cfg.NY != o.NY ||
		cfg.coarseFactor() != o.coarseFactor() ||
		cfg.AmbientC != o.AmbientC ||
		cfg.HBottom != o.HBottom || cfg.HTop != o.HTop || cfg.HSide != o.HSide ||
		cfg.Solver != o.Solver || cfg.Tolerance != o.Tolerance ||
		cfg.Precond != o.Precond || cfg.SurfaceOnly != o.SurfaceOnly ||
		cfg.UseSpice != o.UseSpice ||
		len(cfg.Stack) != len(o.Stack) {
		return false
	}
	for i, l := range cfg.Stack {
		if l != o.Stack[i] {
			return false
		}
	}
	return true
}

// DefaultConfig returns the configuration used throughout the experiments:
// the paper's 40 x 40 x 9 grid, 25 C ambient and a package path calibrated
// so the synthetic benchmark sits a few degrees to a few tens of degrees
// above ambient, as reported in the paper.
func DefaultConfig() Config {
	return Config{
		NX:       40,
		NY:       40,
		Stack:    DefaultStack(),
		AmbientC: 25.0,
		HBottom:  1.2e6,
		HTop:     2.0e4,
		HSide:    1.0e3,
		Solver:   spice.MethodCG,
	}
}

// Result is the outcome of a thermal analysis.
type Result struct {
	// Surface is the temperature map (degrees C) of the power-injection
	// layer on the NX x NY grid: the paper's "thermal profile".
	Surface *geom.Grid
	// Layers holds the temperature map of every layer, bottom to top. With
	// Config.SurfaceOnly only the power-injection layer is materialized;
	// the other entries are nil.
	Layers []*geom.Grid
	// AmbientC echoes the ambient temperature of the analysis.
	AmbientC float64
	// PeakC is the maximum temperature anywhere in the power layer.
	PeakC float64
	// PeakRise is PeakC - AmbientC, the quantity whose reduction the paper
	// reports.
	PeakRise float64
	// GradientC is the maximum temperature difference between adjacent
	// cells of the surface map (a spatial-gradient figure of merit).
	GradientC float64
	// Iterations and SolverResidual report the linear-solve effort.
	Iterations     int
	SolverResidual float64
}

// validate checks the configuration for obvious mistakes.
func (cfg Config) validate() error {
	if cfg.NX <= 1 || cfg.NY <= 1 {
		return fmt.Errorf("thermal: grid must be at least 2x2, got %dx%d", cfg.NX, cfg.NY)
	}
	if cfg.CoarseFactor < 0 {
		return fmt.Errorf("thermal: negative coarse factor %d", cfg.CoarseFactor)
	}
	if len(cfg.Stack) == 0 {
		return fmt.Errorf("thermal: empty layer stack")
	}
	if cfg.Stack.PowerLayer() < 0 {
		return fmt.Errorf("thermal: no power-injection layer in stack")
	}
	for _, l := range cfg.Stack {
		if l.Thickness <= 0 || l.Conductivity <= 0 {
			return fmt.Errorf("thermal: layer %q must have positive thickness and conductivity", l.Name)
		}
	}
	if cfg.HBottom <= 0 && cfg.HTop <= 0 && cfg.HSide <= 0 {
		return fmt.Errorf("thermal: no heat path to ambient (all heat-transfer coefficients zero)")
	}
	return nil
}

// nodeName returns the network node of thermal cell (ix, iy) in layer l.
func nodeName(l, ix, iy int) string { return fmt.Sprintf("t%d_%d_%d", l, ix, iy) }

const (
	metersPerUm = 1e-6
	ambientNode = "amb"
)

// coarsenPowerMap resolves a power map against the configuration's
// effective dims: at full fidelity — or when the caller pre-binned the map
// at the coarse dims — the map is returned as is; a full-resolution map
// under an active CoarseFactor is restricted onto the coarse grid by
// aggregate summation (power-conserving, fine-index order, the same
// piecewise-constant operator the MG hierarchy restricts with). Any other
// resolution is an error.
func coarsenPowerMap(powerMap *geom.Grid, cfg Config) (*geom.Grid, error) {
	nx, ny := cfg.GridDims()
	if powerMap.NX == nx && powerMap.NY == ny {
		return powerMap, nil
	}
	if powerMap.NX != cfg.NX || powerMap.NY != cfg.NY {
		return nil, fmt.Errorf("thermal: power map resolution %dx%d matches neither config %dx%d nor its coarse grid %dx%d",
			powerMap.NX, powerMap.NY, cfg.NX, cfg.NY, nx, ny)
	}
	out := geom.NewGrid(nx, ny, powerMap.Region)
	sparse.Restrict(powerMap.Values(), sparse.Aggregate(cfg.NX, cfg.NY, 1, nx, ny), out.Values())
	return out, nil
}

// BuildNetwork constructs the steady-state resistive thermal network for the
// given power map. The power map must cover the die area (its Region) and
// hold watts per grid cell; its resolution must match cfg.NX x cfg.NY (or,
// with an active CoarseFactor, may already be binned at cfg.GridDims()).
func BuildNetwork(powerMap *geom.Grid, cfg Config) (*spice.Circuit, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	powerMap, err := coarsenPowerMap(powerMap, cfg)
	if err != nil {
		return nil, err
	}
	nx, ny := powerMap.NX, powerMap.NY
	c := spice.NewCircuit()
	if err := c.AddVoltageSource("amb", ambientNode, cfg.AmbientC); err != nil {
		return nil, err
	}

	dx := powerMap.CellW() * metersPerUm
	dy := powerMap.CellH() * metersPerUm
	cellArea := dx * dy

	rname := 0
	addR := func(a, b string, ohms float64) error {
		rname++
		return c.AddResistor(fmt.Sprintf("r%d", rname), a, b, ohms)
	}

	powerLayer := cfg.Stack.PowerLayer()
	iname := 0

	for l, layer := range cfg.Stack {
		dz := layer.Thickness * metersPerUm
		k := layer.Conductivity
		// Lateral resistances within the layer: R = dx / (k * dy * dz).
		rLatX := dx / (k * dy * dz)
		rLatY := dy / (k * dx * dz)
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				n := nodeName(l, ix, iy)
				if ix+1 < nx {
					if err := addR(n, nodeName(l, ix+1, iy), rLatX); err != nil {
						return nil, err
					}
				}
				if iy+1 < ny {
					if err := addR(n, nodeName(l, ix, iy+1), rLatY); err != nil {
						return nil, err
					}
				}
				// Vertical resistance to the layer above: two half-layer
				// resistances in series.
				if l+1 < len(cfg.Stack) {
					up := cfg.Stack[l+1]
					rVert := (dz/2)/(k*cellArea) + (up.Thickness*metersPerUm/2)/(up.Conductivity*cellArea)
					if err := addR(n, nodeName(l+1, ix, iy), rVert); err != nil {
						return nil, err
					}
				}
				// Ambient boundaries.
				if l == 0 && cfg.HBottom > 0 {
					r := (dz/2)/(k*cellArea) + 1/(cfg.HBottom*cellArea)
					if err := addR(n, ambientNode, r); err != nil {
						return nil, err
					}
				}
				if l == len(cfg.Stack)-1 && cfg.HTop > 0 {
					r := (dz/2)/(k*cellArea) + 1/(cfg.HTop*cellArea)
					if err := addR(n, ambientNode, r); err != nil {
						return nil, err
					}
				}
				if cfg.HSide > 0 && (ix == 0 || ix == nx-1 || iy == 0 || iy == ny-1) {
					// Side face area differs for x and y faces; use the
					// matching one per exposed face.
					if ix == 0 || ix == nx-1 {
						faceArea := dy * dz
						r := (dx/2)/(k*faceArea) + 1/(cfg.HSide*faceArea)
						if err := addR(n, ambientNode, r); err != nil {
							return nil, err
						}
					}
					if iy == 0 || iy == ny-1 {
						faceArea := dx * dz
						r := (dy/2)/(k*faceArea) + 1/(cfg.HSide*faceArea)
						if err := addR(n, ambientNode, r); err != nil {
							return nil, err
						}
					}
				}
				// Power injection.
				if l == powerLayer {
					if p := powerMap.At(ix, iy); p != 0 {
						iname++
						if err := c.AddCurrentSource(fmt.Sprintf("p%d", iname), spice.Ground, n, p); err != nil {
							return nil, err
						}
					}
				}
			}
		}
	}
	return c, nil
}

// Solve runs the full analysis: assemble the steady-state system, solve it,
// and collect the per-layer temperature maps and summary metrics.
//
// The default route is the structured-grid fast path (see Solver), which
// assembles integer-indexed CSR directly from the configuration. Callers
// that solve repeatedly should hold a Solver themselves to also reuse the
// assembled structure and warm-start between solves; this function builds a
// fresh one per call. The legacy SPICE-circuit path serves as the oracle
// when cfg.UseSpice is set or a non-CG method is selected.
func Solve(powerMap *geom.Grid, cfg Config) (*Result, error) {
	return SolveCtx(context.Background(), powerMap, cfg)
}

// SolveCtx is Solve with cancellation. On the structured-grid fast path the
// context is checked per CG iteration and per multigrid cycle; the SPICE
// oracle path only checks before starting (its dense factorizations are not
// interruptible).
func SolveCtx(ctx context.Context, powerMap *geom.Grid, cfg Config) (*Result, error) {
	if cfg.FastPath() {
		s, err := NewSolver(cfg)
		if err != nil {
			return nil, err
		}
		// The solver is one-shot here: release its worker pool rather than
		// leaving parked goroutines behind.
		defer s.Close()
		return s.SolveCtx(ctx, powerMap) // reports power-map resolution mismatches
	}
	if err := ctx.Err(); err != nil {
		cfg.Stats.AddCanceled()
		return nil, fmt.Errorf("thermal: spice path: %w", fault.Canceled(err))
	}
	return solveSpice(powerMap, cfg)
}

// solveSpice is the legacy oracle path: build the named-node resistive
// circuit and solve it with package spice.
func solveSpice(powerMap *geom.Grid, cfg Config) (*Result, error) {
	circuit, err := BuildNetwork(powerMap, cfg)
	if err != nil {
		return nil, err
	}
	sol, err := circuit.Solve(spice.SolveOptions{Method: cfg.Solver, Tolerance: cfg.Tolerance})
	if err != nil {
		return nil, fmt.Errorf("thermal: solving network: %w", err)
	}
	res := &Result{
		AmbientC:       cfg.AmbientC,
		Iterations:     sol.Iterations,
		SolverResidual: sol.Residual,
	}
	nx, ny := cfg.GridDims()
	powerLayer := cfg.Stack.PowerLayer()
	res.Layers = make([]*geom.Grid, len(cfg.Stack))
	for l := range cfg.Stack {
		if cfg.SurfaceOnly && l != powerLayer {
			continue
		}
		g := geom.NewGrid(nx, ny, powerMap.Region)
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				g.Set(ix, iy, sol.Voltages[nodeName(l, ix, iy)])
			}
		}
		res.Layers[l] = g
	}
	res.Surface = res.Layers[powerLayer]
	res.PeakC, _, _ = res.Surface.Max()
	res.PeakRise = res.PeakC - cfg.AmbientC
	res.GradientC = res.Surface.Gradient()
	return res, nil
}

// RiseMap returns the surface temperature rise above ambient as a grid.
func (r *Result) RiseMap() *geom.Grid {
	g := r.Surface.Clone()
	for iy := 0; iy < g.NY; iy++ {
		for ix := 0; ix < g.NX; ix++ {
			g.Set(ix, iy, g.At(ix, iy)-r.AmbientC)
		}
	}
	return g
}

// MeanC returns the average surface temperature.
func (r *Result) MeanC() float64 { return r.Surface.Mean() }

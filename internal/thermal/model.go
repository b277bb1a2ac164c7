package thermal

import (
	"fmt"

	"thermplace/internal/fault"
	"thermplace/internal/geom"
	"thermplace/internal/spice"
)

// Config describes one thermal grid and how it is solved. A power map
// solved under it must be exactly NX x NY; a coarser estimate of the same
// die is a Config with smaller NX and NY.
type Config struct {
	// NX and NY are the lateral grid resolution. The paper uses 40 x 40,
	// which puts fewer than ten standard cells under each measuring point.
	NX, NY int
	// Stack is the vertical layer stack.
	Stack Stack
	// AmbientC is the ambient temperature in degrees Celsius.
	AmbientC float64
	// HBottom, HTop and HSide are the effective heat-transfer coefficients
	// (W/(m^2*K)) from the bottom layer, top layer and lateral faces of the
	// model to ambient. They lump the package, heat sink and board paths.
	HBottom, HTop, HSide float64
	// Tolerance is the iterative-solver relative residual target
	// (0 = solver default).
	Tolerance float64
	// Stats, when non-nil, receives the solver's robustness counters:
	// non-converged solves retried on Jacobi, contained panics, canceled
	// solves. The flow wires its own per-flow Stats into every pooled
	// solver.
	Stats *fault.Stats
	// Inject, when non-nil, arms the deterministic fault-injection probe
	// points of package fault on this solver's solves. Test wiring only;
	// set it before the first solve.
	Inject *fault.Injector
}

// GridDims returns the lateral resolution the system is assembled and
// solved at, which is always (NX, NY).
func (cfg Config) GridDims() (nx, ny int) { return cfg.NX, cfg.NY }

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
	}
}

// Result is the outcome of a thermal analysis.
type Result struct {
	// Surface is the temperature map (degrees C) of the power-injection
	// layer on the NX x NY grid: the paper's "thermal profile". The
	// temperatures of the other layers are in Solver.State.
	Surface *geom.Grid
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

// newResult summarizes a solved surface map.
func newResult(surface *geom.Grid, ambientC float64, iters int, residual float64) *Result {
	r := &Result{Surface: surface, AmbientC: ambientC, Iterations: iters, SolverResidual: residual}
	r.PeakC, _, _ = surface.Max()
	r.PeakRise = r.PeakC - ambientC
	r.GradientC = surface.Gradient()
	return r
}

// MaxGridSide bounds NX and NY. A solver allocates about a dozen vectors of
// NX*NY*layers values, so a larger grid is an error up front rather than an
// out-of-memory crash; 640 is four times per side the largest grid in use
// (160), and a 640x640x9 solver takes about 325 MB.
const MaxGridSide = 640

// Validate checks the configuration for obvious mistakes: a grid below 2x2
// or above MaxGridSide per side, a stack without a power layer or with a
// non-physical layer, or no heat path to ambient.
func (cfg Config) Validate() error {
	if cfg.NX <= 1 || cfg.NY <= 1 {
		return fmt.Errorf("thermal: grid must be at least 2x2, got %dx%d", cfg.NX, cfg.NY)
	}
	if cfg.NX > MaxGridSide || cfg.NY > MaxGridSide {
		return fmt.Errorf("thermal: grid %dx%d is above the bound of %d cells per side", cfg.NX, cfg.NY, MaxGridSide)
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

// checkPowerMap rejects a power map whose resolution is not the grid's.
func (cfg Config) checkPowerMap(pm *geom.Grid) error {
	if pm.NX != cfg.NX || pm.NY != cfg.NY {
		return fmt.Errorf("thermal: power map resolution %dx%d does not match grid %dx%d",
			pm.NX, pm.NY, cfg.NX, cfg.NY)
	}
	return nil
}

// nodeName returns the network node of thermal cell (ix, iy) in layer l.
func nodeName(l, ix, iy int) string { return fmt.Sprintf("t%d_%d_%d", l, ix, iy) }

const (
	metersPerUm = 1e-6
	ambientNode = "amb"
)

// BuildNetwork constructs the steady-state resistive thermal network for the
// given power map. The power map must cover the die area (its Region) and
// hold watts per grid cell; its resolution must be exactly cfg.NX x cfg.NY.
func BuildNetwork(powerMap *geom.Grid, cfg Config) (*spice.Circuit, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.checkPowerMap(powerMap); err != nil {
		return nil, err
	}
	nx, ny := cfg.NX, cfg.NY
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

// Solve runs the full analysis on the structured-grid fast path: assemble
// the steady-state system, solve it, and collect the surface temperature
// map and summary metrics. Callers that solve repeatedly should hold a
// Solver (or a Pool) themselves to also reuse the assembled structure and
// warm-start between solves; this function builds a fresh one per call and
// leaves nothing running behind it.
func Solve(powerMap *geom.Grid, cfg Config) (*Result, error) {
	s, err := NewSolver(cfg)
	if err != nil {
		return nil, err
	}
	return s.Solve(powerMap)
}

// SolveSpice is the cross-validation oracle of the fast path: it builds the
// string-named resistive circuit (BuildNetwork) and solves it with package
// spice by the given method. It is roughly an order of magnitude slower
// than Solve and is not interruptible.
func SolveSpice(powerMap *geom.Grid, cfg Config, method spice.Method) (*Result, error) {
	circuit, err := BuildNetwork(powerMap, cfg)
	if err != nil {
		return nil, err
	}
	sol, err := circuit.Solve(spice.SolveOptions{Method: method, Tolerance: cfg.Tolerance})
	if err != nil {
		return nil, fmt.Errorf("thermal: solving network: %w", err)
	}
	powerLayer := cfg.Stack.PowerLayer()
	surface := geom.NewGrid(cfg.NX, cfg.NY, powerMap.Region)
	for iy := 0; iy < cfg.NY; iy++ {
		for ix := 0; ix < cfg.NX; ix++ {
			surface.Set(ix, iy, sol.Voltages[nodeName(powerLayer, ix, iy)])
		}
	}
	return newResult(surface, cfg.AmbientC, sol.Iterations, sol.Residual), nil
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

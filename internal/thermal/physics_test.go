package thermal_test

// Physics references for the thermal model, written from the heat equation
// and the Config alone: nothing here calls into the assembly of package
// thermal or sparse except the solve under test. The SPICE oracle solves
// the same network a second way, so a formula error shared by BuildNetwork
// and the fast path passes it; these references catch one.

import (
	"math"
	"testing"

	"thermplace/internal/geom"
	"thermplace/internal/thermal"
)

const umToM = 1e-6

// physicsConfig is the paper's stack on an NX != NY grid with no side path
// (the references need laterally adiabatic faces), ambient 0 so a solved
// temperature is the rise itself, and a tight solver tolerance.
func physicsConfig() thermal.Config {
	cfg := thermal.DefaultConfig()
	cfg.NX, cfg.NY = 20, 16
	cfg.HSide = 0
	cfg.AmbientC = 0
	cfg.Tolerance = 1e-13
	return cfg
}

// physicsDies are a square-cell die and one with cells stretched in y, as
// empty-row insertion stretches them.
var physicsDies = []struct {
	name string
	w, h float64 // um
}{
	{"square cells", 180, 144},
	{"stretched cells", 180, 201},
}

// solveMap solves pm under cfg and returns the power layer's temperatures.
func solveMap(t *testing.T, pm *geom.Grid, cfg thermal.Config) *geom.Grid {
	t.Helper()
	res, err := thermal.Solve(pm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Surface
}

// TestUniformSheetMatchesSeriesResistance: uniform power from a sheet at the
// power layer's mid-plane with adiabatic sides is one-dimensional, and its
// steady state is piecewise linear in depth, which finite volumes solve
// exactly. Heat leaves through two series paths per unit area, down
// through the layers below the power layer's mid-plane and the bottom film,
// up through the rest and the top film; the sheet's rise is the flux times
// the two paths in parallel.
func TestUniformSheetMatchesSeriesResistance(t *testing.T) {
	cfg := physicsConfig()
	p := cfg.Stack.PowerLayer()
	down := 1 / cfg.HBottom
	up := 1 / cfg.HTop
	for l, layer := range cfg.Stack {
		r := layer.Thickness * umToM / layer.Conductivity // K m^2 / W
		switch {
		case l < p:
			down += r
		case l > p:
			up += r
		default:
			down += r / 2
			up += r / 2
		}
	}
	const total = 0.02 // W
	for _, die := range physicsDies {
		pm := geom.NewGrid(cfg.NX, cfg.NY, geom.Rect{Xhi: die.w, Yhi: die.h})
		pm.Fill(total / float64(cfg.NX*cfg.NY))
		flux := total / (die.w * umToM * die.h * umToM)
		want := flux * down * up / (down + up)
		surface := solveMap(t, pm, cfg)
		for i, got := range surface.Values() {
			if math.Abs(got-want) > 1e-9*want {
				t.Fatalf("%s: cell %d rise %.15g C, series-resistance rise %.15g C (rel %.3g)",
					die.name, i, got, want, math.Abs(got-want)/want)
			}
		}
	}
}

// TestCosineModeMatchesLayerSolve: with adiabatic sides, a power map that is
// one discrete cosine mode along x (or y) is an eigenvector of every
// layer's discrete lateral conduction, so the field is that mode times one
// amplitude per layer. The amplitudes solve a tridiagonal system over the
// layers: each layer's lateral operator on the mode is 4·sin²(πk/2N) times
// its link conductance k·(face area)/(pitch), the layers couple through the
// series half-layer resistances, and the outer layers through their films.
// The solved power-layer amplitude must equal that system's.
func TestCosineModeMatchesLayerSolve(t *testing.T) {
	cfg := physicsConfig()
	p := cfg.Stack.PowerLayer()
	const amp = 1e-3 // W per cell
	for _, die := range physicsDies {
		dx := die.w / float64(cfg.NX) * umToM
		dy := die.h / float64(cfg.NY) * umToM
		for _, mode := range []struct {
			axis string
			k    int
		}{{"x", 1}, {"x", 7}, {"y", 2}, {"y", 15}} {
			n, pitch, face := cfg.NX, dx, dy // x mode: links across y-z faces
			if mode.axis == "y" {
				n, pitch, face = cfg.NY, dy, dx
			}
			shape := func(ix, iy int) float64 {
				i := ix
				if mode.axis == "y" {
					i = iy
				}
				return math.Cos(math.Pi * float64(mode.k) * (float64(i) + 0.5) / float64(n))
			}
			pm := geom.NewGrid(cfg.NX, cfg.NY, geom.Rect{Xhi: die.w, Yhi: die.h})
			for iy := 0; iy < cfg.NY; iy++ {
				for ix := 0; ix < cfg.NX; ix++ {
					pm.Set(ix, iy, amp*shape(ix, iy))
				}
			}

			// The per-mode system over the layers.
			nl := len(cfg.Stack)
			a := make([][]float64, nl)
			rhs := make([]float64, nl)
			rhs[p] = amp
			lambda := 4 * math.Pow(math.Sin(math.Pi*float64(mode.k)/float64(2*n)), 2)
			area := dx * dy
			half := func(l int) float64 { // half-layer resistance, K/W
				return cfg.Stack[l].Thickness * umToM / 2 / (cfg.Stack[l].Conductivity * area)
			}
			for l, layer := range cfg.Stack {
				a[l] = make([]float64, nl)
				a[l][l] = lambda * layer.Conductivity * face * layer.Thickness * umToM / pitch
				if l > 0 {
					g := 1 / (half(l-1) + half(l))
					a[l][l] += g
					a[l][l-1] = -g
				}
				if l+1 < nl {
					g := 1 / (half(l) + half(l+1))
					a[l][l] += g
					a[l][l+1] = -g
				}
			}
			a[0][0] += 1 / (half(0) + 1/(cfg.HBottom*area))
			a[nl-1][nl-1] += 1 / (half(nl-1) + 1/(cfg.HTop*area))
			want := solveDense(a, rhs)[p]

			// Project the solved power layer onto the mode.
			surface := solveMap(t, pm, cfg)
			dot, norm := 0.0, 0.0
			for iy := 0; iy < cfg.NY; iy++ {
				for ix := 0; ix < cfg.NX; ix++ {
					c := shape(ix, iy)
					dot += surface.At(ix, iy) * c
					norm += c * c
				}
			}
			got := dot / norm
			if math.Abs(got-want) > 1e-9*math.Abs(want) {
				t.Fatalf("%s, %s mode k=%d: power-layer amplitude %.15g C, per-mode solve %.15g C (rel %.3g)",
					die.name, mode.axis, mode.k, got, want, math.Abs(got-want)/math.Abs(want))
			}
			for iy := 0; iy < cfg.NY; iy++ {
				for ix := 0; ix < cfg.NX; ix++ {
					if d := math.Abs(surface.At(ix, iy) - got*shape(ix, iy)); d > 1e-9*math.Abs(want) {
						t.Fatalf("%s, %s mode k=%d: cell (%d,%d) leaves the mode by %g C", die.name, mode.axis, mode.k, ix, iy, d)
					}
				}
			}
		}
	}
}

// solveDense solves a·x = b by Gaussian elimination with partial pivoting;
// a and b are overwritten.
func solveDense(a [][]float64, b []float64) []float64 {
	n := len(b)
	for c := 0; c < n; c++ {
		piv := c
		for r := c + 1; r < n; r++ {
			if math.Abs(a[r][c]) > math.Abs(a[piv][c]) {
				piv = r
			}
		}
		a[c], a[piv] = a[piv], a[c]
		b[c], b[piv] = b[piv], b[c]
		for r := c + 1; r < n; r++ {
			f := a[r][c] / a[c][c]
			for k := c; k < n; k++ {
				a[r][k] -= f * a[c][k]
			}
			b[r] -= f * b[c]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for k := r + 1; k < n; k++ {
			s -= a[r][k] * x[k]
		}
		x[r] = s / a[r][r]
	}
	return x
}

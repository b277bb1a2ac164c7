package thermal

import (
	"math"
	"slices"
	"strings"
	"testing"

	"thermplace/internal/geom"
	"thermplace/internal/spice"
)

// testConfig returns a reduced configuration (coarser grid, thinner stack)
// that keeps unit tests fast while exercising the same code paths.
func testConfig(nx, ny int) Config {
	return Config{
		NX: nx, NY: ny,
		Stack: Stack{
			{Name: "si", Thickness: 40, Conductivity: 110},
			{Name: "active", Thickness: 5, Conductivity: 80, Power: true},
			{Name: "beol", Thickness: 10, Conductivity: 2},
		},
		AmbientC: 25,
		HBottom:  1.2e6,
		HTop:     2e4,
		HSide:    1e3,
	}
}

// dieRegion returns a square die region of the given side in um.
func dieRegion(side float64) geom.Rect { return geom.Rect{Xlo: 0, Ylo: 0, Xhi: side, Yhi: side} }

func TestConfigValidation(t *testing.T) {
	pm := geom.NewGrid(4, 4, dieRegion(100))
	cases := []struct {
		name string
		mut  func(*Config)
		want string // a part of the error message, when it matters
	}{
		{"tiny grid", func(c *Config) { c.NX = 1 }, ""},
		// The power map's resolution mismatches too; the grid bound must be
		// what rejects the configuration, before any solver allocation.
		{"huge grid", func(c *Config) { c.NX = MaxGridSide + 1 }, "bound of 640 cells per side"},
		{"empty stack", func(c *Config) { c.Stack = nil }, ""},
		{"no power layer", func(c *Config) {
			c.Stack = Stack{{Name: "x", Thickness: 10, Conductivity: 100}}
		}, ""},
		{"bad layer", func(c *Config) { c.Stack[0].Thickness = 0 }, ""},
		{"no ambient path", func(c *Config) { c.HBottom, c.HTop, c.HSide = 0, 0, 0 }, ""},
	}
	for _, cse := range cases {
		cfg := testConfig(4, 4)
		cse.mut(&cfg)
		if _, err := Solve(pm, cfg); err == nil || !strings.Contains(err.Error(), cse.want) {
			t.Errorf("%s: got error %v, want one containing %q", cse.name, err, cse.want)
		}
	}
	// Resolution mismatch.
	if _, err := Solve(geom.NewGrid(3, 3, dieRegion(100)), testConfig(4, 4)); err == nil {
		t.Error("power map resolution mismatch must fail")
	}
}

func TestDefaultStackAndConfig(t *testing.T) {
	s := DefaultStack()
	if len(s) != 9 {
		t.Fatalf("default stack has %d layers, the paper uses 9", len(s))
	}
	if s.PowerLayer() < 0 {
		t.Fatal("default stack must have a power layer")
	}
	cfg := DefaultConfig()
	if cfg.NX != 40 || cfg.NY != 40 {
		t.Fatalf("default grid is %dx%d, the paper uses 40x40", cfg.NX, cfg.NY)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestUniformPowerBasicPhysics(t *testing.T) {
	cfg := testConfig(8, 8)
	pm := geom.NewGrid(8, 8, dieRegion(200))
	totalPower := 0.02 // 20 mW
	perCell := totalPower / 64
	pm.Fill(perCell)
	res, err := Solve(pm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Everything must be at or above ambient.
	minT, _, _ := res.Surface.Min()
	if minT < cfg.AmbientC-1e-6 {
		t.Fatalf("surface temperature %g below ambient %g", minT, cfg.AmbientC)
	}
	if res.PeakRise <= 0 {
		t.Fatal("peak rise must be positive with non-zero power")
	}
	if res.PeakRise > 200 {
		t.Fatalf("peak rise %g C implausibly large", res.PeakRise)
	}
	// Symmetric uniform heating on a symmetric die: the hottest point is in
	// the interior (cooling through the sides makes the boundary cooler).
	_, ix, iy := res.Surface.Max()
	if ix == 0 || ix == 7 || iy == 0 || iy == 7 {
		t.Errorf("uniform heating peak at boundary cell (%d,%d)", ix, iy)
	}
	// Symmetry: temperature at mirrored cells must match.
	for iy := 0; iy < 8; iy++ {
		for ix := 0; ix < 8; ix++ {
			a := res.Surface.At(ix, iy)
			b := res.Surface.At(7-ix, iy)
			if math.Abs(a-b) > 1e-3 {
				t.Fatalf("x-mirror symmetry broken at (%d,%d): %g vs %g", ix, iy, a, b)
			}
		}
	}
	if res.MeanC() <= cfg.AmbientC {
		t.Fatal("mean temperature must exceed ambient")
	}
	// RiseMap is Surface - ambient.
	rise := res.RiseMap()
	pk, _, _ := rise.Max()
	if math.Abs(pk-res.PeakRise) > 1e-9 {
		t.Fatalf("RiseMap peak %g != PeakRise %g", pk, res.PeakRise)
	}
}

func TestLinearityInPower(t *testing.T) {
	cfg := testConfig(6, 6)
	pm := geom.NewGrid(6, 6, dieRegion(150))
	pm.Set(3, 3, 0.005)
	pm.Set(2, 3, 0.003)
	r1, err := Solve(pm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pm2 := pm.Clone().Scale(2)
	r2, err := Solve(pm2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r2.PeakRise-2*r1.PeakRise) > 1e-5*r1.PeakRise {
		t.Fatalf("peak rise not linear in power: %g vs 2*%g", r2.PeakRise, r1.PeakRise)
	}
}

func TestHotspotLocalization(t *testing.T) {
	cfg := testConfig(10, 10)
	pm := geom.NewGrid(10, 10, dieRegion(300))
	// One hot cell in the lower-left quadrant.
	pm.Set(2, 2, 0.01)
	res, err := Solve(pm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, ix, iy := res.Surface.Max()
	if ix != 2 || iy != 2 {
		t.Fatalf("peak at (%d,%d), want at the heated cell (2,2)", ix, iy)
	}
	// Temperature must decay with distance from the hotspot.
	near := res.Surface.At(3, 2)
	far := res.Surface.At(9, 9)
	if !(res.Surface.At(2, 2) > near && near > far) {
		t.Fatalf("no monotone decay: hot=%g near=%g far=%g", res.Surface.At(2, 2), near, far)
	}
	if res.GradientC <= 0 {
		t.Fatal("hotspot must create a spatial gradient")
	}
}

func TestLargerDieLowersPeak(t *testing.T) {
	// The core mechanism the paper exploits: same total power spread over a
	// larger area gives a lower peak temperature.
	cfg := testConfig(8, 8)
	total := 0.03
	small := geom.NewGrid(8, 8, dieRegion(200))
	small.Fill(total / 64)
	large := geom.NewGrid(8, 8, dieRegion(240)) // +44% area
	large.Fill(total / 64)
	rs, err := Solve(small, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Solve(large, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rl.PeakRise >= rs.PeakRise {
		t.Fatalf("larger die must be cooler: %g vs %g", rl.PeakRise, rs.PeakRise)
	}
	reduction := (rs.PeakRise - rl.PeakRise) / rs.PeakRise
	if reduction < 0.05 || reduction > 0.60 {
		t.Fatalf("44%% area increase gives %.1f%% reduction; expected a sizeable but sub-proportional effect", reduction*100)
	}
}

func TestLocalDensityMattersNotJustTotalPower(t *testing.T) {
	// Two maps with identical total power: one concentrates it in a 2x2
	// patch, the other spreads it over a 4x4 patch. The concentrated one
	// must run hotter — this is what makes hotspot-targeted whitespace more
	// effective than blind spreading.
	cfg := testConfig(12, 12)
	region := dieRegion(300)
	total := 0.02
	tight := geom.NewGrid(12, 12, region)
	for iy := 5; iy < 7; iy++ {
		for ix := 5; ix < 7; ix++ {
			tight.Set(ix, iy, total/4)
		}
	}
	spread := geom.NewGrid(12, 12, region)
	for iy := 4; iy < 8; iy++ {
		for ix := 4; ix < 8; ix++ {
			spread.Set(ix, iy, total/16)
		}
	}
	rt, err := Solve(tight, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rsp, err := Solve(spread, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rt.PeakRise <= rsp.PeakRise {
		t.Fatalf("concentrated power must be hotter: tight %g vs spread %g", rt.PeakRise, rsp.PeakRise)
	}
}

func TestSolversAgreeOnThermalNetwork(t *testing.T) {
	cfg := testConfig(5, 5)
	pm := geom.NewGrid(5, 5, dieRegion(120))
	pm.Set(1, 1, 0.004)
	pm.Set(3, 3, 0.002)

	ref, err := SolveSpice(pm, cfg, spice.MethodDense)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tolerance = 1e-11
	for _, tc := range []struct {
		name  string
		solve func() (*Result, error)
	}{
		{"fast path", func() (*Result, error) { return Solve(pm, cfg) }},
		{"spice gauss-seidel", func() (*Result, error) { return SolveSpice(pm, cfg, spice.MethodGaussSeidel) }},
	} {
		got, err := tc.solve()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for iy := 0; iy < 5; iy++ {
			for ix := 0; ix < 5; ix++ {
				a, b := got.Surface.At(ix, iy), ref.Surface.At(ix, iy)
				if math.Abs(a-b) > 1e-4 {
					t.Fatalf("%s: cell (%d,%d) = %g, dense reference %g", tc.name, ix, iy, a, b)
				}
			}
		}
	}
}

func TestLayersOrderedByDistanceFromSink(t *testing.T) {
	// With the main heat path through the bottom, the power layer must be
	// at least as hot as the bottom layer everywhere.
	cfg := testConfig(6, 6)
	pm := geom.NewGrid(6, 6, dieRegion(150))
	pm.Fill(0.0003)
	res, field := solveState(t, newSolver(t, cfg), pm)
	const nxy = 6 * 6
	if len(field) != len(cfg.Stack)*nxy {
		t.Fatalf("field holds %d temperatures, want %d", len(field), len(cfg.Stack)*nxy)
	}
	pl := cfg.Stack.PowerLayer()
	bottom, active := field[:nxy], field[pl*nxy:(pl+1)*nxy]
	// The surface map is the power layer's block of the field.
	if !slices.Equal(res.Surface.Values(), active) {
		t.Fatal("Surface is not the power layer's temperature map")
	}
	for i := range active {
		if active[i] < bottom[i]-1e-9 {
			t.Fatalf("active layer cooler than heat-sink layer at (%d,%d)", i%6, i/6)
		}
	}
}

// TestEnergyBalance checks conservation on the full solved field: at steady
// state the heat leaving through the bottom, top and side boundaries equals
// the injected power. The boundary conductances are recomputed here from the
// Config's physical parameters, independently of the solver's assembly, so
// a dropped or mis-scaled ambient term fails the balance — a bug the SPICE
// oracle cannot see, because BuildNetwork shares the element formulas.
func TestEnergyBalance(t *testing.T) {
	// A side-only configuration makes the HSide faces carry all the heat,
	// so an error in their conductance cannot hide behind the sinks.
	sideOnly := testConfig(9, 7)
	sideOnly.HBottom, sideOnly.HTop = 0, 0
	for _, cfg := range []Config{testConfig(9, 7), sideOnly, DefaultConfig()} {
		// A non-square die and an asymmetric map: a power gradient plus an
		// off-centre hot cell, so x and y faces carry different heat.
		pm := geom.NewGrid(cfg.NX, cfg.NY, geom.Rect{Xhi: 360, Yhi: 280})
		for iy := 0; iy < cfg.NY; iy++ {
			for ix := 0; ix < cfg.NX; ix++ {
				pm.Set(ix, iy, 1e-5*float64(1+ix+2*iy)/float64(cfg.NX*cfg.NY))
			}
		}
		pm.Add(1, cfg.NY-2, 0.004)
		_, field := solveState(t, newSolver(t, cfg), pm)
		in, out := pm.Sum(), boundaryOutflow(cfg, pm, field)
		rel := math.Abs(out-in) / in
		if rel > 1e-6 {
			t.Errorf("%dx%d, HBottom %g, HTop %g: %g W injected, %g W leaves through the boundaries (relative error %.3g)",
				cfg.NX, cfg.NY, cfg.HBottom, cfg.HTop, in, out, rel)
		}
		t.Logf("%dx%d, HBottom %g, HTop %g: energy balance relative error %.3g", cfg.NX, cfg.NY, cfg.HBottom, cfg.HTop, rel)
	}
}

// boundaryOutflow returns the heat (W) that leaves a solved field to
// ambient. Every exposed face is half a cell of conduction in series with
// the face's heat-transfer coefficient: HBottom under layer 0, HTop over the
// last layer and HSide on the four lateral faces of every layer.
func boundaryOutflow(cfg Config, pm *geom.Grid, field []float64) float64 {
	dx, dy := pm.CellW()*metersPerUm, pm.CellH()*metersPerUm
	face := func(depth, k, area, h float64) float64 {
		if h <= 0 {
			return 0
		}
		return 1 / (depth/2/(k*area) + 1/(h*area))
	}
	out := 0.0
	for l, layer := range cfg.Stack {
		dz, k := layer.Thickness*metersPerUm, layer.Conductivity
		for iy := 0; iy < cfg.NY; iy++ {
			for ix := 0; ix < cfg.NX; ix++ {
				g := 0.0
				if l == 0 {
					g += face(dz, k, dx*dy, cfg.HBottom)
				}
				if l == len(cfg.Stack)-1 {
					g += face(dz, k, dx*dy, cfg.HTop)
				}
				if ix == 0 {
					g += face(dx, k, dy*dz, cfg.HSide)
				}
				if ix == cfg.NX-1 {
					g += face(dx, k, dy*dz, cfg.HSide)
				}
				if iy == 0 {
					g += face(dy, k, dx*dz, cfg.HSide)
				}
				if iy == cfg.NY-1 {
					g += face(dy, k, dx*dz, cfg.HSide)
				}
				out += g * (field[(l*cfg.NY+iy)*cfg.NX+ix] - cfg.AmbientC)
			}
		}
	}
	return out
}

func TestBuildNetworkStructure(t *testing.T) {
	cfg := testConfig(4, 4)
	pm := geom.NewGrid(4, 4, dieRegion(100))
	pm.Set(0, 0, 0.001)
	c, err := BuildNetwork(pm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Node count: 4*4*3 thermal nodes + ambient + ground.
	if got, want := c.NumNodes(), 4*4*3+2; got != want {
		t.Fatalf("NumNodes = %d, want %d", got, want)
	}
	if len(c.CurrentSources()) != 1 {
		t.Fatalf("one powered cell must produce one current source, got %d", len(c.CurrentSources()))
	}
	if len(c.VoltageSources()) != 1 {
		t.Fatalf("expected a single ambient source, got %d", len(c.VoltageSources()))
	}
	if len(c.Resistors()) == 0 {
		t.Fatal("no resistors built")
	}
}

func TestZeroPowerStaysAtAmbient(t *testing.T) {
	cfg := testConfig(5, 5)
	pm := geom.NewGrid(5, 5, dieRegion(120))
	res, err := Solve(pm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PeakRise) > 1e-9 {
		t.Fatalf("zero power must give zero rise, got %g", res.PeakRise)
	}
	if math.Abs(res.MeanC()-cfg.AmbientC) > 1e-9 {
		t.Fatalf("zero power must sit at ambient, mean %g", res.MeanC())
	}
}

func TestPaperScaleGridSolves(t *testing.T) {
	if testing.Short() {
		t.Skip("full 40x40x9 solve skipped in -short mode")
	}
	cfg := DefaultConfig()
	pm := geom.NewGrid(cfg.NX, cfg.NY, dieRegion(360))
	// Roughly the benchmark's power: ~25 mW with a hot block.
	pm.Fill(0.012 / float64(cfg.NX*cfg.NY))
	for iy := 8; iy < 16; iy++ {
		for ix := 8; ix < 16; ix++ {
			pm.Add(ix, iy, 0.010/64)
		}
	}
	res, err := Solve(pm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports peak temperatures from a few degrees to 25 degrees
	// above ambient across its configurations; the calibrated model must
	// land in that order of magnitude.
	if res.PeakRise < 1 || res.PeakRise > 80 {
		t.Fatalf("peak rise %g C outside the plausible band for the benchmark", res.PeakRise)
	}
	// The hotspot must appear over the hot block.
	_, ix, iy := res.Surface.Max()
	if ix < 7 || ix > 17 || iy < 7 || iy > 17 {
		t.Fatalf("peak at (%d,%d), want inside the heated block", ix, iy)
	}
	t.Logf("40x40x9 solve: peak rise %.2f C, %d CG iterations", res.PeakRise, res.Iterations)
}

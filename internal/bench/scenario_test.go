package bench

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"thermplace/internal/celllib"
	"thermplace/internal/def"
	"thermplace/internal/floorplan"
	"thermplace/internal/netlist"
	"thermplace/internal/place"
)

func TestFamiliesAndParse(t *testing.T) {
	fams := Families()
	if len(fams) < 4 {
		t.Fatalf("need at least four scenario families, got %d", len(fams))
	}
	seen := map[Family]bool{}
	for _, f := range fams {
		if seen[f] {
			t.Fatalf("duplicate family %q", f)
		}
		seen[f] = true
		got, err := ParseFamily(string(f))
		if err != nil || got != f {
			t.Fatalf("ParseFamily(%q) = %q, %v", f, got, err)
		}
	}
	if _, err := ParseFamily("nope"); err == nil {
		t.Fatal("unknown family must fail to parse")
	}
}

func TestScenarioNormalizeAndValidate(t *testing.T) {
	sc := Scenario{Family: FamilyGradientMix}.Normalized()
	if sc.TargetCells != 12000 || sc.ClockGHz != 1.0 {
		t.Fatalf("defaults not applied: %+v", sc)
	}
	bad := []Scenario{
		{Family: "bogus"},
		{Family: FamilyManyUnits, TargetCells: 10},
		{Family: FamilyManyUnits, ClockGHz: -1},
	}
	for _, sc := range bad {
		if err := sc.Normalized().Validate(); err == nil {
			t.Errorf("scenario %+v must fail validation", sc)
		}
	}
}

// serializeScenario generates the scenario and returns the Verilog and DEF
// bytes of the result; the DEF comes from a deterministic placement of the
// generated design.
func serializeScenario(t *testing.T, sc Scenario) (verilog, defBytes []byte, g *Generated) {
	t.Helper()
	g, err := sc.Generate(celllib.Default65nm())
	if err != nil {
		t.Fatalf("generating %v: %v", sc, err)
	}
	var vbuf bytes.Buffer
	if err := netlist.WriteVerilog(&vbuf, g.Design); err != nil {
		t.Fatal(err)
	}
	fp, err := floorplan.New(g.Design, floorplan.Config{
		Utilization: 0.85,
		AspectRatio: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := place.PlaceWithoutFillers(g.Design, fp)
	if err != nil {
		t.Fatal(err)
	}
	place.InsertFillers(p)
	var dbuf bytes.Buffer
	if err := def.Write(&dbuf, p); err != nil {
		t.Fatal(err)
	}
	return vbuf.Bytes(), dbuf.Bytes(), g
}

// TestScenarioSeedDeterminism is the generator's reproducibility contract:
// the same seed yields byte-identical netlist and DEF output; a different
// seed yields a different design or workload.
func TestScenarioSeedDeterminism(t *testing.T) {
	for _, fam := range Families() {
		fam := fam
		t.Run(string(fam), func(t *testing.T) {
			sc := Scenario{Family: fam, Seed: 5, TargetCells: 2500}
			v1, d1, g1 := serializeScenario(t, sc)
			v2, d2, g2 := serializeScenario(t, sc)
			if !bytes.Equal(v1, v2) {
				t.Fatal("same seed must produce byte-identical Verilog")
			}
			if !bytes.Equal(d1, d2) {
				t.Fatal("same seed must produce byte-identical DEF")
			}
			if g1.Workload.Default != g2.Workload.Default || len(g1.Workload.Activity) != len(g2.Workload.Activity) {
				t.Fatal("same seed must produce the identical workload")
			}
			for u, a := range g1.Workload.Activity {
				if g2.Workload.Activity[u] != a {
					t.Fatalf("same seed changed activity of %s: %v vs %v", u, a, g2.Workload.Activity[u])
				}
			}

			v3, _, g3 := serializeScenario(t, Scenario{Family: fam, Seed: 6, TargetCells: 2500})
			netlistDiffers := !bytes.Equal(stripModuleName(v1), stripModuleName(v3))
			workloadDiffers := workloadsDiffer(g1.Workload, g3.Workload)
			if !netlistDiffers && !workloadDiffers {
				t.Fatal("different seeds must change the netlist or the workload")
			}
			// Every family except paper-synth9 (whose unit mix is pinned to
			// the paper) must produce a structurally different netlist.
			if fam != FamilyPaperSynth9 && !netlistDiffers {
				t.Fatal("different seeds must change the generated netlist")
			}
		})
	}
}

// stripModuleName drops the seed-bearing module header line so that
// different-seed comparisons look at the circuit structure, not the name.
func stripModuleName(v []byte) []byte {
	lines := bytes.SplitN(v, []byte("\n"), 2)
	if len(lines) == 2 {
		return lines[1]
	}
	return v
}

func workloadsDiffer(a, b Workload) bool {
	if a.Default != b.Default || len(a.Activity) != len(b.Activity) {
		return true
	}
	for u, v := range a.Activity {
		if b.Activity[u] != v {
			return true
		}
	}
	return false
}

// TestScenarioFamilySizes checks every family tracks its target cell count
// at multiple sizes and always produces a checked design with a hot unit.
func TestScenarioFamilySizes(t *testing.T) {
	sizes := []int{1200, 4000}
	if !testing.Short() {
		sizes = append(sizes, 12000)
	}
	lib := celllib.Default65nm()
	for _, fam := range Families() {
		for _, cells := range sizes {
			fam, cells := fam, cells
			t.Run(fmt.Sprintf("%s/cells=%d", fam, cells), func(t *testing.T) {
				g, err := Scenario{Family: fam, Seed: 3, TargetCells: cells}.Generate(lib)
				if err != nil {
					t.Fatal(err)
				}
				n := g.Design.NumInstances()
				if lo, hi := int(0.75*float64(cells)), int(1.25*float64(cells)); n < lo || n > hi {
					t.Fatalf("%s at target %d generated %d cells (want within ±25%%)", fam, cells, n)
				}
				if errs := g.Design.Check(); len(errs) != 0 {
					t.Fatalf("generated design fails checks: %v", errs[0])
				}
				if len(g.Design.Units()) != len(g.Config.Units) {
					t.Fatalf("design has %d units, config %d", len(g.Design.Units()), len(g.Config.Units))
				}
				// The workload must single out at least one hot unit so the
				// thermal transforms have something to target.
				hot := 0
				for _, u := range g.Config.Units {
					if g.Workload.ActivityFor(u.Name) >= 2*g.Workload.Default {
						hot++
					}
				}
				if hot == 0 {
					t.Fatal("workload has no hot units")
				}
				t.Logf("%s target=%d: %d cells in %d units, %d hot", fam, cells, n, len(g.Config.Units), hot)
			})
		}
	}
}

// TestScenarioFamilyCharacter pins the qualitative property each family is
// named for.
func TestScenarioFamilyCharacter(t *testing.T) {
	lib := celllib.Default65nm()
	gen := func(fam Family) *Generated {
		g, err := Scenario{Family: fam, Seed: 11, TargetCells: 6000}.Generate(lib)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		return g
	}

	paper := gen(FamilyPaperSynth9)
	if len(paper.Config.Units) != 9 {
		t.Errorf("paper-synth9 must keep the paper's nine units, got %d", len(paper.Config.Units))
	}

	cluster := gen(FamilyHotspotCluster)
	hot := 0
	for _, u := range cluster.Config.Units {
		if cluster.Workload.ActivityFor(u.Name) >= 2*cluster.Workload.Default {
			hot++
		}
	}
	if hot < 2 || hot > 3 {
		t.Errorf("hotspot-cluster should heat 2-3 units, got %d", hot)
	}

	many := gen(FamilyManyUnits)
	if len(many.Config.Units) < 25 {
		t.Errorf("many-units at 6000 cells should have dozens of units, got %d", len(many.Config.Units))
	}

	wide := gen(FamilyWideDatapath)
	maxWidth := 0
	for _, u := range wide.Config.Units {
		if u.Width > maxWidth {
			maxWidth = u.Width
		}
	}
	if maxWidth < 20 {
		t.Errorf("wide-datapath should contain a wide unit, widest is %d bits", maxWidth)
	}

	grad := gen(FamilyGradientMix)
	kinds := map[UnitKind]bool{}
	for _, u := range grad.Config.Units {
		kinds[u.Kind] = true
	}
	if len(kinds) < 4 {
		t.Errorf("gradient-mix should mix unit kinds, got %d kinds", len(kinds))
	}
	first := grad.Workload.ActivityFor(grad.Config.Units[0].Name)
	last := grad.Workload.ActivityFor(grad.Config.Units[len(grad.Config.Units)-1].Name)
	if first <= 2*last {
		t.Errorf("gradient-mix activity should ramp down the unit list: first %v, last %v", first, last)
	}
}

// TestScenarioUnitNamesFlowSafe guards the flow's port-to-unit mapping: a
// port is attributed to its unit by splitting at the first underscore, so
// generated unit names must never contain one.
func TestScenarioUnitNamesFlowSafe(t *testing.T) {
	lib := celllib.Default65nm()
	for _, fam := range Families() {
		g, err := Scenario{Family: fam, Seed: 2, TargetCells: 2000}.Generate(lib)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range g.Config.Units {
			if strings.Contains(u.Name, "_") {
				t.Fatalf("%s: unit name %q contains an underscore", fam, u.Name)
			}
		}
	}
}

// TestEstimateCellsMatchesGenerator cross-checks the planner's closed-form
// cell-count model against what the generators actually build.
func TestEstimateCellsMatchesGenerator(t *testing.T) {
	lib := celllib.Default65nm()
	specs := []UnitSpec{
		{Name: "m8", Kind: KindMultiplier, Width: 8},
		{Name: "m17", Kind: KindMultiplier, Width: 17},
		{Name: "a16", Kind: KindRippleAdder, Width: 16},
		{Name: "cs24", Kind: KindCarrySelectAdder, Width: 24},
		{Name: "cs30", Kind: KindCarrySelectAdder, Width: 30},
		{Name: "mac9", Kind: KindMAC, Width: 9},
		{Name: "alu12", Kind: KindALU, Width: 12},
		{Name: "cmp21", Kind: KindComparator, Width: 21},
	}
	for _, spec := range specs {
		d, err := Generate(lib, Config{Name: "est", ClockGHz: 1, Units: []UnitSpec{spec}})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		got := d.NumInstances()
		est := EstimateCells(spec)
		if math.Abs(float64(got-est)) > 0.05*float64(got) {
			t.Errorf("%s (%v w=%d): estimate %d vs generated %d", spec.Name, spec.Kind, spec.Width, est, got)
		}
	}
}

package power

import (
	"math"
	"strings"
	"testing"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/floorplan"
	"thermplace/internal/logicsim"
	"thermplace/internal/place"
)

// TestReportMatchesPackageFormulas recomputes, on every scenario family,
// every instance's breakdown from the package-doc formulas — the master's
// leakage, switch energy and CK pin capacitance, the output net's
// simulated rate, its load pin capacitances and placed HPWL, and the
// library's wire capacitance and Vdd — with none of the Estimator's
// precomputed terms, and requires Report.Breakdown to agree within 1e-12
// relative, fillers at exactly zero.
func TestReportMatchesPackageFormulas(t *testing.T) {
	for _, fam := range bench.Families() {
		t.Run(string(fam), func(t *testing.T) { checkPackageFormulas(t, fam) })
	}
}

func checkPackageFormulas(t *testing.T, fam bench.Family) {
	lib := celllib.Default65nm()
	g, err := bench.Scenario{Family: fam, Seed: 1, TargetCells: 1500}.Generate(lib)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Design
	fp, err := floorplan.New(d, floorplan.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := place.Place(d, fp)
	if err != nil {
		t.Fatal(err)
	}
	// A filler instance in the netlist itself, beside the placement's own
	// whitespace fillers (which are not design instances).
	if _, err := d.AddInstance("fill_oracle", "FILL4", ""); err != nil {
		t.Fatal(err)
	}
	act, err := logicsim.RunRandom(d, 64, 3, func(port string) float64 {
		unit, _, _ := strings.Cut(port, "_")
		return g.Workload.ActivityFor(unit)
	})
	if err != nil {
		t.Fatal(err)
	}
	const f = 1e9
	rep := Estimate(d, p, act, f)

	near := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-12*math.Abs(want)
	}
	vdd2 := lib.Vdd * lib.Vdd
	fillers, switching := 0, 0
	for _, inst := range d.Instances() {
		got := rep.Breakdown(inst)
		m := inst.Master
		if m.Filler {
			if got != (Breakdown{}) {
				t.Fatalf("filler %s has power %+v", inst.Name, got)
			}
			fillers++
			continue
		}
		var want Breakdown
		want.Leakage = m.Leakage * 1e-9
		if m.Sequential {
			want.Clock = 0.5 * m.PinCap("CK") * 1e-15 * vdd2 * 2 * f
		}
		if out := inst.Conn(m.OutputPin()); out != nil {
			alpha := act.For(out)
			capFF := p.HPWL(out) * lib.WireCapPerUm
			for _, l := range out.Loads {
				if l.Inst != nil {
					capFF += l.Inst.Master.PinCap(l.Pin)
				}
			}
			want.Internal = m.SwitchEnergy * 1e-15 * alpha * f
			want.Load = 0.5 * capFF * 1e-15 * vdd2 * alpha * f
			if alpha > 0 {
				switching++
			}
		}
		if !near(got.Internal, want.Internal) || !near(got.Load, want.Load) ||
			!near(got.Clock, want.Clock) || !near(got.Leakage, want.Leakage) {
			t.Fatalf("%s (%s): breakdown %+v, formulas give %+v", inst.Name, m.Name, got, want)
		}
	}
	if fillers == 0 || switching == 0 {
		t.Fatalf("design has %d fillers and %d switching cells; the oracle needs both", fillers, switching)
	}
}

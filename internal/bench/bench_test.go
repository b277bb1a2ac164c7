package bench

import (
	"math/rand"
	"strings"
	"testing"

	"thermplace/internal/celllib"
	"thermplace/internal/logicsim"
	"thermplace/internal/netlist"
)

func TestDefaultConfigHasNineUnits(t *testing.T) {
	cfg := DefaultConfig()
	if len(cfg.Units) != 9 {
		t.Fatalf("paper benchmark must have nine arithmetic units, got %d", len(cfg.Units))
	}
}

func TestGenerateDefaultBenchmarkSize(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark generation skipped in -short mode")
	}
	lib := celllib.Default65nm()
	d, err := Generate(lib, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := d.NumInstances()
	// The paper says "about 12000 standard cells"; accept a reasonable band.
	if n < 10000 || n > 14500 {
		t.Fatalf("default benchmark has %d cells, want about 12000", n)
	}
	if errs := d.Check(); len(errs) != 0 {
		t.Fatalf("generated benchmark fails Check: %v", errs[0])
	}
	units := d.Units()
	if len(units) != 9 {
		t.Fatalf("generated benchmark has %d units, want 9", len(units))
	}
	// Every unit must have a meaningful number of cells.
	for _, u := range units {
		if c := len(d.InstancesInUnit(u)); c < 100 {
			t.Errorf("unit %s has only %d cells", u, c)
		}
	}
	t.Logf("default benchmark: %d cells, %d nets", n, d.NumNets())
}

func TestGenerateErrors(t *testing.T) {
	lib := celllib.Default65nm()
	if _, err := Generate(lib, Config{Name: "x"}); err == nil {
		t.Error("empty unit list must fail")
	}
	if _, err := Generate(lib, Config{Name: "x", Units: []UnitSpec{{Name: "u", Kind: KindMultiplier, Width: 0}}}); err == nil {
		t.Error("zero width must fail")
	}
	if _, err := Generate(lib, Config{Name: "x", Units: []UnitSpec{
		{Name: "u", Kind: KindMultiplier, Width: 4},
		{Name: "u", Kind: KindMultiplier, Width: 4},
	}}); err == nil {
		t.Error("duplicate unit names must fail")
	}
}

func TestUnitKindString(t *testing.T) {
	kinds := []UnitKind{KindMultiplier, KindRippleAdder, KindCarrySelectAdder, KindMAC, KindALU, KindComparator}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "UnitKind(") {
			t.Errorf("kind %d has no name", int(k))
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
}

// genUnit builds a single-unit design for functional testing.
func genUnit(t *testing.T, spec UnitSpec) *netlist.Design {
	t.Helper()
	lib := celllib.Default65nm()
	d, err := Generate(lib, Config{Name: "one_" + spec.Name, Units: []UnitSpec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runCycle drives the unit inputs, clocks once so registers capture, and
// returns a simulator ready to read the registered outputs.
func runCycle(t *testing.T, d *netlist.Design, set func(sim *logicsim.Simulator)) *logicsim.Simulator {
	t.Helper()
	sim, err := logicsim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	set(sim)
	sim.Step()
	return sim
}

func TestRippleAdderFunctional(t *testing.T) {
	d := genUnit(t, UnitSpec{Name: "add8", Kind: KindRippleAdder, Width: 8})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		a := uint64(rng.Intn(256))
		b := uint64(rng.Intn(256))
		sim := runCycle(t, d, func(s *logicsim.Simulator) {
			if err := s.SetBus("add8_a", a); err != nil {
				t.Fatal(err)
			}
			if err := s.SetBus("add8_b", b); err != nil {
				t.Fatal(err)
			}
		})
		got, width := sim.ReadBus("add8_s")
		if width != 9 {
			t.Fatalf("sum width = %d, want 9", width)
		}
		if got != a+b {
			t.Fatalf("adder: %d + %d = %d, want %d", a, b, got, a+b)
		}
	}
}

func TestCarrySelectAdderFunctional(t *testing.T) {
	d := genUnit(t, UnitSpec{Name: "cs16", Kind: KindCarrySelectAdder, Width: 16})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		a := uint64(rng.Intn(1 << 16))
		b := uint64(rng.Intn(1 << 16))
		sim := runCycle(t, d, func(s *logicsim.Simulator) {
			if err := s.SetBus("cs16_a", a); err != nil {
				t.Fatal(err)
			}
			if err := s.SetBus("cs16_b", b); err != nil {
				t.Fatal(err)
			}
		})
		got, _ := sim.ReadBus("cs16_s")
		if got != a+b {
			t.Fatalf("carry-select adder: %d + %d = %d, want %d", a, b, got, a+b)
		}
	}
}

func TestArrayMultiplierFunctional(t *testing.T) {
	d := genUnit(t, UnitSpec{Name: "m8", Kind: KindMultiplier, Width: 8})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		a := uint64(rng.Intn(256))
		b := uint64(rng.Intn(256))
		sim := runCycle(t, d, func(s *logicsim.Simulator) {
			if err := s.SetBus("m8_a", a); err != nil {
				t.Fatal(err)
			}
			if err := s.SetBus("m8_b", b); err != nil {
				t.Fatal(err)
			}
		})
		got, width := sim.ReadBus("m8_p")
		if width != 16 {
			t.Fatalf("product width = %d, want 16", width)
		}
		if got != a*b {
			t.Fatalf("multiplier: %d * %d = %d, want %d", a, b, got, a*b)
		}
	}
}

func TestMACAccumulates(t *testing.T) {
	d := genUnit(t, UnitSpec{Name: "mac4", Kind: KindMAC, Width: 4})
	sim, err := logicsim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	// Accumulate 3*5 for three cycles: acc = 15, 30, 45.
	if err := sim.SetBus("mac4_a", 3); err != nil {
		t.Fatal(err)
	}
	if err := sim.SetBus("mac4_b", 5); err != nil {
		t.Fatal(err)
	}
	want := []uint64{15, 30, 45}
	for i, w := range want {
		sim.Step()
		got, _ := sim.ReadBus("mac4_acc")
		if got != w {
			t.Fatalf("cycle %d: acc = %d, want %d", i, got, w)
		}
	}
}

func TestALUFunctional(t *testing.T) {
	d := genUnit(t, UnitSpec{Name: "alu8", Kind: KindALU, Width: 8})
	a, b := uint64(0xC5), uint64(0x3A)
	cases := []struct {
		op0, op1 bool
		want     uint64
		name     string
	}{
		{false, false, (a + b) & 0xFF, "add"},
		{true, false, a & b, "and"},
		{false, true, a | b, "or"},
		{true, true, a ^ b, "xor"},
	}
	for _, c := range cases {
		sim := runCycle(t, d, func(s *logicsim.Simulator) {
			if err := s.SetBus("alu8_a", a); err != nil {
				t.Fatal(err)
			}
			if err := s.SetBus("alu8_b", b); err != nil {
				t.Fatal(err)
			}
			if err := s.SetInput("alu8_op0", c.op0); err != nil {
				t.Fatal(err)
			}
			if err := s.SetInput("alu8_op1", c.op1); err != nil {
				t.Fatal(err)
			}
		})
		got, _ := sim.ReadBus("alu8_r")
		if got != c.want {
			t.Errorf("ALU %s: got %#x, want %#x", c.name, got, c.want)
		}
	}
}

func TestComparatorFunctional(t *testing.T) {
	d := genUnit(t, UnitSpec{Name: "cmp8", Kind: KindComparator, Width: 8})
	cases := []struct {
		a, b   uint64
		eq, gt bool
	}{
		{5, 5, true, false},
		{9, 5, false, true},
		{5, 9, false, false},
		{0, 0, true, false},
		{255, 0, false, true},
	}
	for _, c := range cases {
		sim := runCycle(t, d, func(s *logicsim.Simulator) {
			if err := s.SetBus("cmp8_a", c.a); err != nil {
				t.Fatal(err)
			}
			if err := s.SetBus("cmp8_b", c.b); err != nil {
				t.Fatal(err)
			}
		})
		eq, err := sim.NetValue("cmp8_eq")
		if err != nil {
			t.Fatal(err)
		}
		gt, err := sim.NetValue("cmp8_gt")
		if err != nil {
			t.Fatal(err)
		}
		if eq != c.eq || gt != c.gt {
			t.Errorf("cmp(%d,%d): eq=%v gt=%v, want eq=%v gt=%v", c.a, c.b, eq, gt, c.eq, c.gt)
		}
	}
}

func TestWorkloadProfiles(t *testing.T) {
	sc := ScatteredSmallHotspots()
	if sc.ActivityFor("mult16a") <= sc.ActivityFor("mult32") {
		t.Fatal("scattered workload must heat the small multipliers, not mult32")
	}
	hotUnits := 0
	for _, u := range DefaultConfig().Units {
		if sc.ActivityFor(u.Name) > 2*sc.Default {
			hotUnits++
		}
	}
	if hotUnits != 4 {
		t.Fatalf("scattered workload should heat four units, got %d", hotUnits)
	}

	cc := ConcentratedLargeHotspot()
	if cc.ActivityFor("mult32") <= cc.ActivityFor("mult16a") {
		t.Fatal("concentrated workload must heat mult32")
	}

	un := UniformWorkload(0.3)
	if un.ActivityFor("anything") != 0.3 {
		t.Fatal("uniform workload must apply its default everywhere")
	}
}

func TestSmallConfigGenerates(t *testing.T) {
	lib := celllib.Default65nm()
	d, err := Generate(lib, SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.NumInstances() < 100 || d.NumInstances() > 2000 {
		t.Fatalf("small benchmark has %d cells, want a few hundred", d.NumInstances())
	}
	if errs := d.Check(); len(errs) != 0 {
		t.Fatalf("Check: %v", errs[0])
	}
}

func TestGeneratedDesignSimulates(t *testing.T) {
	lib := celllib.Default65nm()
	d, err := Generate(lib, SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	wl := UniformWorkload(0.4)
	act, err := logicsim.RunRandom(d, 64, 1, func(port string) float64 {
		return wl.ActivityFor(strings.SplitN(port, "_", 2)[0])
	})
	if err != nil {
		t.Fatal(err)
	}
	switching := 0
	for _, inst := range d.Instances() {
		if out := inst.Master.OutputPin(); out != "" && act.For(inst.Conn(out)) > 0 {
			switching++
		}
	}
	if switching == 0 {
		t.Fatal("simulated benchmark should have non-zero switching activity")
	}
}

// Property-style test: the hotter workload produces strictly more switching
// in the hot unit than the cold workload does, which is the mechanism the
// paper relies on to position hotspots.
func TestWorkloadControlsUnitActivity(t *testing.T) {
	lib := celllib.Default65nm()
	d, err := Generate(lib, Config{Name: "two", Units: []UnitSpec{
		{Name: "hotm", Kind: KindMultiplier, Width: 8},
		{Name: "coldm", Kind: KindMultiplier, Width: 8},
	}})
	if err != nil {
		t.Fatal(err)
	}
	wl := Workload{Name: "skewed", Activity: map[string]float64{"hotm": 0.6}, Default: 0.02}
	act, err := logicsim.RunRandom(d, 128, 5, func(port string) float64 {
		return wl.ActivityFor(strings.SplitN(port, "_", 2)[0])
	})
	if err != nil {
		t.Fatal(err)
	}
	sumFor := func(unit string) float64 {
		total := 0.0
		for _, inst := range d.InstancesInUnit(unit) {
			out := inst.Master.OutputPin()
			if out == "" {
				continue
			}
			if net := inst.Conn(out); net != nil {
				total += act.For(net)
			}
		}
		return total
	}
	hot, cold := sumFor("hotm"), sumFor("coldm")
	if hot <= 2*cold {
		t.Fatalf("hot unit activity %v should dominate cold unit activity %v", hot, cold)
	}
}

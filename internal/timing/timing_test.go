package timing

import (
	"testing"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/floorplan"
	"thermplace/internal/geom"
	"thermplace/internal/netlist"
	"thermplace/internal/place"
)

// chainDesign builds a simple inverter chain a -> INV x n -> DFF so the
// critical path is easy to reason about.
func chainDesign(t *testing.T, n int) *netlist.Design {
	t.Helper()
	lib := celllib.Default65nm()
	d := netlist.NewDesign("chain", lib)
	if _, err := d.AddPort("clk", netlist.In); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddPort("a", netlist.In); err != nil {
		t.Fatal(err)
	}
	cur := d.Net("a")
	for i := 0; i < n; i++ {
		inst, err := d.AddInstance(fmtInt("inv", i), "INV_X1", "u")
		if err != nil {
			t.Fatal(err)
		}
		next := d.GetOrCreateNet(fmtInt("n", i))
		if err := d.Connect(inst, "A", cur); err != nil {
			t.Fatal(err)
		}
		if err := d.Connect(inst, "Z", next); err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	ff, err := d.AddInstance("ff", "DFF_X1", "u")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(ff, "D", cur); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(ff, "CK", d.Net("clk")); err != nil {
		t.Fatal(err)
	}
	q := d.GetOrCreateNet("q")
	if err := d.Connect(ff, "Z", q); err != nil {
		t.Fatal(err)
	}
	return d
}

func fmtInt(prefix string, i int) string { return prefix + string(rune('a'+i)) }

func TestChainDelayWithoutPlacement(t *testing.T) {
	lib := celllib.Default65nm()
	inv := lib.Master("INV_X1")
	dff := lib.Master("DFF_X1")
	d := chainDesign(t, 4)
	rep, err := Analyze(d, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Expected: 3 intermediate inverters drive one INV_X1 input each, the
	// last drives the DFF D pin; no wire loads.
	want := 0.0
	for i := 0; i < 4; i++ {
		load := inv.PinCap("A")
		if i == 3 {
			load = dff.PinCap("D")
		}
		want += inv.Intrinsic + inv.DriveRes*load
	}
	if diff := rep.CriticalPathPs - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("critical path %g ps, want %g ps", rep.CriticalPathPs, want)
	}
	if rep.Endpoints != 1 {
		t.Fatalf("endpoints = %d, want 1 (the DFF D pin)", rep.Endpoints)
	}
	if rep.MaxFrequencyGHz <= 0 || rep.SlackPs != 1000-rep.CriticalPathPs {
		t.Fatalf("derived metrics wrong: %+v", rep)
	}
	if len(rep.CriticalPath) == 0 {
		t.Fatal("critical path steps missing")
	}
	// Arrival times must be monotone along the path.
	for i := 1; i < len(rep.CriticalPath); i++ {
		if rep.CriticalPath[i].TimePs < rep.CriticalPath[i-1].TimePs {
			t.Fatal("critical path arrivals not monotone")
		}
	}
}

func TestLongerChainIsSlower(t *testing.T) {
	short := chainDesign(t, 3)
	long := chainDesign(t, 9)
	rs, err := Analyze(short, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Analyze(long, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rl.CriticalPathPs <= rs.CriticalPathPs {
		t.Fatalf("longer chain must be slower: %g vs %g", rl.CriticalPathPs, rs.CriticalPathPs)
	}
}

func placedBenchmark(t *testing.T) (*netlist.Design, *place.Placement) {
	t.Helper()
	lib := celllib.Default65nm()
	d, err := bench.Generate(lib, bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	fp, err := floorplan.New(d, floorplan.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := place.Place(d, fp)
	if err != nil {
		t.Fatal(err)
	}
	return d, p
}

func TestPlacementAddsWireDelay(t *testing.T) {
	d, p := placedBenchmark(t)
	noWire, err := Analyze(d, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	withWire, err := Analyze(d, p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if withWire.CriticalPathPs <= noWire.CriticalPathPs {
		t.Fatalf("placed analysis must include wire delay: %g vs %g", withWire.CriticalPathPs, noWire.CriticalPathPs)
	}
	// The small benchmark at 1 GHz should be within an order of magnitude of
	// the clock period — sanity band for the delay model's units.
	if withWire.CriticalPathPs < 100 || withWire.CriticalPathPs > 20000 {
		t.Fatalf("critical path %g ps outside plausibility band", withWire.CriticalPathPs)
	}
}

func TestTemperatureDeratingSlowsDesign(t *testing.T) {
	d, p := placedBenchmark(t)
	cold, err := Analyze(d, p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	hotMap := geom.NewGrid(10, 10, p.FP.Core)
	hotMap.Fill(95) // 70 C above the 25 C nominal
	opts := DefaultOptions()
	opts.TemperatureMap = hotMap
	hot, err := Analyze(d, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hot.CriticalPathPs <= cold.CriticalPathPs {
		t.Fatal("a hot die must be slower than a cold one")
	}
	// 70 C above nominal at 4%/10C derating: cells get ~28% slower, wires
	// ~35%; the overall path should land in that range.
	ov := Overhead(cold, hot)
	if ov < 0.20 || ov > 0.40 {
		t.Fatalf("70C derating produced %.1f%% slowdown, want roughly 28-35%%", ov*100)
	}
}

func TestOverheadHelper(t *testing.T) {
	a := &Report{CriticalPathPs: 100}
	b := &Report{CriticalPathPs: 102}
	if ov := Overhead(a, b); ov < 0.0199 || ov > 0.0201 {
		t.Fatalf("Overhead = %g, want 0.02", ov)
	}
	if Overhead(nil, b) != 0 || Overhead(a, nil) != 0 || Overhead(&Report{}, b) != 0 {
		t.Fatal("degenerate Overhead cases must return 0")
	}
}

func TestAnalyzeErrorPaths(t *testing.T) {
	lib := celllib.Default65nm()
	d := netlist.NewDesign("loop", lib)
	u1, _ := d.AddInstance("u1", "INV_X1", "")
	u2, _ := d.AddInstance("u2", "INV_X1", "")
	n1 := d.GetOrCreateNet("n1")
	n2 := d.GetOrCreateNet("n2")
	_ = d.Connect(u1, "A", n2)
	_ = d.Connect(u1, "Z", n1)
	_ = d.Connect(u2, "A", n1)
	_ = d.Connect(u2, "Z", n2)
	if _, err := Analyze(d, nil, DefaultOptions()); err == nil {
		t.Fatal("combinational loop must be rejected")
	}

	open := netlist.NewDesign("open", lib)
	g, _ := open.AddInstance("g", "NAND2_X1", "")
	_ = open.Connect(g, "Z", open.GetOrCreateNet("z"))
	if _, err := Analyze(open, nil, DefaultOptions()); err == nil {
		t.Fatal("unconnected input must be rejected")
	}
}

func TestPostPlacementTransformTimingOverheadIsSmall(t *testing.T) {
	// The paper reports a maximum timing overhead around 2% for its
	// transforms. Verify the claim's spirit here with a pure vertical
	// stretch of the placement (the ERI effect on cell positions): the
	// critical path grows only mildly.
	d, p := placedBenchmark(t)
	before, err := Analyze(d, p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Simulate an ERI-like stretch: move the top half of the rows up by
	// four row heights (the real transform's overhead is what `reproduce
	// -exp timing` reports; here we only need the STA sensitivity).
	stretched := p.Clone()
	stretched.FP.Core.Yhi += 4 * p.FP.RowHeight
	for i := 0; i < 4; i++ {
		if err := stretched.FP.InsertRows(stretched.FP.NumRows(), 1); err != nil {
			t.Fatal(err)
		}
	}
	mid := p.FP.Core.Center().Y
	for _, inst := range d.Instances() {
		if inst.IsFiller() {
			continue
		}
		if l, ok := stretched.Loc(inst); ok && p.FP.Rows[l.Row].Y > mid {
			l.Row += 4
			stretched.SetLoc(inst, l)
		}
	}
	place.Legalize(stretched)
	after, err := Analyze(d, stretched, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ov := Overhead(before, after)
	t.Logf("stretch timing overhead: %.2f%%", ov*100)
	if ov > 0.10 {
		t.Fatalf("timing overhead %.1f%% far above the paper's ~2%% claim", ov*100)
	}
}

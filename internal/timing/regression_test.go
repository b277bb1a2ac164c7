package timing

import (
	"errors"
	"strings"
	"testing"

	"thermplace/internal/celllib"
	"thermplace/internal/geom"
	"thermplace/internal/netlist"
)

// libWithDINFlop returns the default library extended with a flip-flop whose
// data pin is named DIN rather than D, modelled on DFF_X1.
func libWithDINFlop(t *testing.T) *celllib.Library {
	t.Helper()
	lib := celllib.Default65nm()
	dff := lib.Master("DFF_X1")
	if dff == nil {
		t.Fatal("library has no DFF_X1")
	}
	err := lib.AddMaster(&celllib.Master{
		Name:  "DFFDIN_X1",
		Width: dff.Width,
		Pins: []celllib.Pin{
			{Name: "DIN", Dir: celllib.Input, Cap: dff.PinCap("D")},
			{Name: "CK", Dir: celllib.Input, Cap: dff.PinCap("CK")},
			{Name: "Q", Dir: celllib.Output},
		},
		Function:     celllib.FuncDFF,
		DriveRes:     dff.DriveRes,
		Intrinsic:    dff.Intrinsic,
		Leakage:      dff.Leakage,
		SwitchEnergy: dff.SwitchEnergy,
		Sequential:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// Regression for the hardcoded consider(ff.Conn("D")) endpoint scan: a
// sequential master whose data pin is not literally named "D" must still
// contribute its data net as a timing endpoint.
func TestEndpointPinNotNamedD(t *testing.T) {
	lib := libWithDINFlop(t)
	d := netlist.NewDesign("dinchain", lib)
	if _, err := d.AddPort("clk", netlist.In); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddPort("a", netlist.In); err != nil {
		t.Fatal(err)
	}
	cur := d.Net("a")
	for i := 0; i < 3; i++ {
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
	ff, err := d.AddInstance("ff", "DFFDIN_X1", "u")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(ff, "DIN", cur); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(ff, "CK", d.Net("clk")); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(ff, "Q", d.GetOrCreateNet("q")); err != nil {
		t.Fatal(err)
	}

	rep, err := Analyze(d, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Endpoints != 1 {
		t.Fatalf("Endpoints = %d, want 1 (the DIN net)", rep.Endpoints)
	}
	last := rep.CriticalPath[len(rep.CriticalPath)-1]
	if last.Net != cur || last.TimePs != rep.CriticalPathPs {
		t.Fatalf("critical path ends at %s arriving %g ps, want the DIN net %s arriving at the critical path %g ps",
			last.Net.Name, last.TimePs, cur.Name, rep.CriticalPathPs)
	}
}

// Regression for the endpoint double count: a net that is both a flip-flop
// data input and a primary output is one endpoint, not two.
func TestEndpointCountedOnceWhenDataNetIsPrimaryOutput(t *testing.T) {
	d := chainDesign(t, 3)
	y, err := d.AddPort("y", netlist.Out)
	if err != nil {
		t.Fatal(err)
	}
	// Rebind the output port to the FF's data net, making it both kinds of
	// endpoint at once.
	ff := d.Instance("ff")
	y.Net = ff.Conn("D")
	rep, err := Analyze(d, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Endpoints != 1 {
		t.Fatalf("Endpoints = %d, want 1 (FF data net == primary output)", rep.Endpoints)
	}
}

// Regression for the zero-value option conflation: explicitly zero derates
// with a temperature map must disable derating, not silently become the
// 4%/10C / 5%/10C defaults.
func TestZeroDeratesAreExpressible(t *testing.T) {
	d, p := placedBenchmark(t)
	plain, err := Analyze(d, p, Options{ClockPeriodPs: 1000})
	if err != nil {
		t.Fatal(err)
	}
	hotMap := geom.NewGrid(10, 10, p.FP.Core)
	hotMap.Fill(95)
	derated, err := Analyze(d, p, Options{
		TemperatureMap: hotMap,
		ClockPeriodPs:  1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if derated.CriticalPathPs != plain.CriticalPathPs {
		t.Fatalf("zero derates must be inert: %g ps with map vs %g ps without",
			derated.CriticalPathPs, plain.CriticalPathPs)
	}
}

// Regression for the zero-value option conflation: NominalC 0 must mean
// "characterized at 0 C", not silently become 25 C.
func TestZeroNominalIsExpressible(t *testing.T) {
	d, p := placedBenchmark(t)
	plain, err := Analyze(d, p, Options{ClockPeriodPs: 1000})
	if err != nil {
		t.Fatal(err)
	}
	atNominal := geom.NewGrid(10, 10, p.FP.Core)
	atNominal.Fill(0) // the die sits exactly at the 0 C nominal
	same, err := Analyze(d, p, Options{
		TemperatureMap:   atNominal,
		NominalC:         0,
		CellDeratePer10C: 0.04,
		WireDeratePer10C: 0.05,
		ClockPeriodPs:    1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if same.CriticalPathPs != plain.CriticalPathPs {
		t.Fatalf("die at the 0 C nominal must not derate: %g ps vs %g ps",
			same.CriticalPathPs, plain.CriticalPathPs)
	}
}

// gradientMap builds a non-uniform temperature field so the derates vary
// across the core.
func gradientMap(core geom.Rect) *geom.Grid {
	g := geom.NewGrid(10, 10, core)
	for iy := 0; iy < g.NY; iy++ {
		for ix := 0; ix < g.NX; ix++ {
			g.Set(ix, iy, 40+3*float64(ix)+2*float64(iy))
		}
	}
	return g
}

// TestGatedClockRejected clocks a flip-flop through an AND2. Gated clocks
// are not modeled, so NewAnalyzer returns the netlist's GraphError naming
// the flip-flop instead of timing the design as if the clock were ideal.
func TestGatedClockRejected(t *testing.T) {
	const src = `module gated (clk, en, d, q);
  input clk, en, d;
  output q;
  AND2_X1 g (.A(clk), .B(en), .Z(gck));
  DFF_X1 ff (.D(d), .CK(gck), .Z(q));
endmodule
`
	d, err := netlist.ParseVerilog(strings.NewReader(src), celllib.Default65nm())
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewAnalyzer(d)
	var ge *netlist.GraphError
	if !errors.As(err, &ge) || ge.Inst != "ff" {
		t.Fatalf("NewAnalyzer = %v, want a netlist.GraphError naming ff", err)
	}
}

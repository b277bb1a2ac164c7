package logicsim

import (
	"errors"
	"strings"
	"testing"

	"thermplace/internal/celllib"
	"thermplace/internal/netlist"
)

// buildCombDesign creates: z = (a NAND b) inverted = a AND b.
func buildCombDesign(t *testing.T) *netlist.Design {
	t.Helper()
	lib := celllib.Default65nm()
	d := netlist.NewDesign("comb", lib)
	mustPort := func(n string, dir netlist.PortDir) *netlist.Port {
		p, err := d.AddPort(n, dir)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	mustPort("a", netlist.In)
	mustPort("b", netlist.In)
	mustPort("z", netlist.Out)
	u1, _ := d.AddInstance("u1", "NAND2_X1", "")
	u2, _ := d.AddInstance("u2", "INV_X1", "")
	n1 := d.GetOrCreateNet("n1")
	conn := func(inst *netlist.Instance, pin string, net *netlist.Net) {
		t.Helper()
		if err := d.Connect(inst, pin, net); err != nil {
			t.Fatal(err)
		}
	}
	conn(u1, "A", d.Net("a"))
	conn(u1, "B", d.Net("b"))
	conn(u1, "Z", n1)
	conn(u2, "A", n1)
	conn(u2, "Z", d.Net("z"))
	return d
}

// buildSeqDesign creates a 1-bit toggle register: q <= q XOR en.
func buildSeqDesign(t *testing.T) *netlist.Design {
	t.Helper()
	lib := celllib.Default65nm()
	d := netlist.NewDesign("seq", lib)
	if _, err := d.AddPort("clk", netlist.In); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddPort("en", netlist.In); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddPort("q", netlist.Out); err != nil {
		t.Fatal(err)
	}
	x, _ := d.AddInstance("x", "XOR2_X1", "")
	ff, _ := d.AddInstance("ff", "DFF_X1", "")
	buf, _ := d.AddInstance("ob", "BUF_X1", "")
	dNet := d.GetOrCreateNet("d")
	qNet := d.GetOrCreateNet("qi")
	conn := func(inst *netlist.Instance, pin string, net *netlist.Net) {
		t.Helper()
		if err := d.Connect(inst, pin, net); err != nil {
			t.Fatal(err)
		}
	}
	conn(x, "A", qNet)
	conn(x, "B", d.Net("en"))
	conn(x, "Z", dNet)
	conn(ff, "D", dNet)
	conn(ff, "CK", d.Net("clk"))
	conn(ff, "Z", qNet)
	conn(buf, "A", qNet)
	conn(buf, "Z", d.Net("q"))
	return d
}

func TestCombinationalEvaluation(t *testing.T) {
	d := buildCombDesign(t)
	sim, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ a, b, want bool }{
		{false, false, false},
		{true, false, false},
		{false, true, false},
		{true, true, true},
	}
	for _, c := range cases {
		if err := sim.SetInput("a", c.a); err != nil {
			t.Fatal(err)
		}
		if err := sim.SetInput("b", c.b); err != nil {
			t.Fatal(err)
		}
		sim.Eval()
		got, err := sim.NetValue("z")
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("a=%v b=%v: z=%v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSequentialToggle(t *testing.T) {
	d := buildSeqDesign(t)
	sim, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SetInput("en", true); err != nil {
		t.Fatal(err)
	}
	// With enable high, q toggles every cycle: 0 -> 1 -> 0 -> 1 ...
	want := []bool{true, false, true, false}
	for i, w := range want {
		sim.Step()
		got, _ := sim.NetValue("q")
		if got != w {
			t.Fatalf("cycle %d: q=%v, want %v", i, got, w)
		}
	}
	// With enable low, q holds.
	if err := sim.SetInput("en", false); err != nil {
		t.Fatal(err)
	}
	prev, _ := sim.NetValue("q")
	sim.Step()
	got, _ := sim.NetValue("q")
	if got != prev {
		t.Fatal("q should hold when enable is low")
	}
}

func TestClockNetDetection(t *testing.T) {
	d := buildSeqDesign(t)
	sim, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.Inputs(); len(got) != 1 || got[0] != "en" {
		t.Fatalf("drivable inputs = %v, want [en] (the clock is not drivable)", got)
	}
	if err := sim.SetInput("clk", true); err == nil {
		t.Fatal("clock must not be a drivable input")
	}
}

func TestSetInputErrors(t *testing.T) {
	d := buildCombDesign(t)
	sim, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SetInput("nope", true); err == nil {
		t.Fatal("unknown input must error")
	}
	if _, err := sim.NetValue("nope"); err == nil {
		t.Fatal("unknown net must error")
	}
}

func TestCombinationalLoopDetection(t *testing.T) {
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
	if _, err := New(d); err == nil {
		t.Fatal("combinational loop must be rejected")
	}
}

// TestGatedClockRejected clocks a flip-flop through an AND2. Gated clocks
// are not modeled, so New returns the netlist's GraphError naming the
// flip-flop rather than simulating the clock as data.
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
	_, err = New(d)
	var ge *netlist.GraphError
	if !errors.As(err, &ge) || ge.Inst != "ff" {
		t.Fatalf("New = %v, want a netlist.GraphError naming ff", err)
	}
}

func TestUnconnectedPinRejected(t *testing.T) {
	lib := celllib.Default65nm()
	d := netlist.NewDesign("open", lib)
	u1, _ := d.AddInstance("u1", "NAND2_X1", "")
	_ = d.Connect(u1, "A", d.GetOrCreateNet("a"))
	_ = d.Connect(u1, "Z", d.GetOrCreateNet("z"))
	if _, err := New(d); err == nil {
		t.Fatal("unconnected input pin must be rejected")
	}
}

// rateOf returns the simulated toggle rate of the named net.
func rateOf(t *testing.T, d *netlist.Design, act *Activity, name string) float64 {
	t.Helper()
	n := d.Net(name)
	if n == nil {
		t.Fatalf("no net %q", name)
	}
	return act.For(n)
}

// TestUncompilableMasterRejected edits a library master after AddMaster
// validated it: a function that disagrees with the pins is an error from
// New, never a panic.
func TestUncompilableMasterRejected(t *testing.T) {
	d := buildSeqDesign(t)
	d.Lib.Master("XOR2_X1").Function = celllib.FuncXor3
	if _, err := New(d); err == nil {
		t.Fatal("XOR3 function on a two-input cell must be rejected")
	}
}

func TestToggleCountingAndActivity(t *testing.T) {
	d := buildSeqDesign(t)
	// An enable that never toggles stays 0, so q holds at 0.
	act, err := RunRandom(d, 101, 1, func(string) float64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if r := rateOf(t, d, act, "qi"); r != 0 {
		t.Fatalf("q activity with idle enable = %v, want 0", r)
	}
	if r := rateOf(t, d, act, "clk"); r != 2.0 {
		t.Fatalf("clock activity = %v, want 2", r)
	}

	// An enable that toggles every cycle alternates, and q toggles in
	// every cycle the enable is 1.
	act2, err := RunRandom(d, 200, 1, func(string) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if r := rateOf(t, d, act2, "en"); r != 1 {
		t.Fatalf("en activity with p = 1 is %v, want 1", r)
	}
	if r := rateOf(t, d, act2, "qi"); r < 0.3 || r > 0.7 {
		t.Fatalf("q activity with alternating enable = %v, want about 0.5", r)
	}
	if act2.Cycles != 200 {
		t.Fatalf("Cycles = %d", act2.Cycles)
	}
}

func TestRunRandomValidation(t *testing.T) {
	d := buildCombDesign(t)
	if _, err := RunRandom(d, 0, 1, func(string) float64 { return 0 }); err == nil {
		t.Fatal("zero cycles must error")
	}
}

// TestRandomStimulusRespectsProbability drives one input at probability 1
// and one at 0: draws fall in [0, 1), so the first toggles every cycle and
// the second never does.
func TestRandomStimulusRespectsProbability(t *testing.T) {
	d := netlist.NewDesign("probs", celllib.Default65nm())
	for _, name := range []string{"cold", "hot"} {
		if _, err := d.AddPort(name, netlist.In); err != nil {
			t.Fatal(err)
		}
	}
	act, err := RunRandom(d, 100, 42, func(port string) float64 {
		if port == "hot" {
			return 1.0
		}
		return 0.0
	})
	if err != nil {
		t.Fatal(err)
	}
	if hot, cold := rateOf(t, d, act, "hot"), rateOf(t, d, act, "cold"); hot != 1 || cold != 0 {
		t.Fatalf("stimulus probabilities not respected: hot rate %v, cold rate %v", hot, cold)
	}
}

func TestBusHelpers(t *testing.T) {
	lib := celllib.Default65nm()
	d := netlist.NewDesign("bus", lib)
	for i := 0; i < 4; i++ {
		if _, err := d.AddPort(fmtName("a", i), netlist.In); err != nil {
			t.Fatal(err)
		}
		if _, err := d.AddPort(fmtName("z", i), netlist.Out); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		u, _ := d.AddInstance(fmtName("u", i), "BUF_X1", "")
		_ = d.Connect(u, "A", d.Net(fmtName("a", i)))
		_ = d.Connect(u, "Z", d.Net(fmtName("z", i)))
	}
	sim, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SetBus("a", 0b1010); err != nil {
		t.Fatal(err)
	}
	sim.Eval()
	v, w := sim.ReadBus("z")
	if w != 4 || v != 0b1010 {
		t.Fatalf("ReadBus = %b (width %d), want 1010 (4)", v, w)
	}
	if err := sim.SetBus("nonexistent", 1); err == nil {
		t.Fatal("SetBus on missing bus must error")
	}
}

func fmtName(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}

package netlist

import (
	"testing"

	"thermplace/internal/celllib"
)

// buildSmallDesign constructs a tiny two-gate design used by several tests:
//
//	a, b --NAND2(u1)--> n1 --INV(u2)--> z
func buildSmallDesign(t *testing.T) *Design {
	t.Helper()
	lib := celllib.Default65nm()
	d := NewDesign("tiny", lib)
	if _, err := d.AddPort("a", In); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddPort("b", In); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddPort("z", Out); err != nil {
		t.Fatal(err)
	}
	u1, err := d.AddInstance("u1", "NAND2_X1", "blockA")
	if err != nil {
		t.Fatal(err)
	}
	u2, err := d.AddInstance("u2", "INV_X1", "")
	if err != nil {
		t.Fatal(err)
	}
	n1 := d.GetOrCreateNet("n1")
	mustConnect := func(inst *Instance, pin string, net *Net) {
		t.Helper()
		if err := d.Connect(inst, pin, net); err != nil {
			t.Fatal(err)
		}
	}
	mustConnect(u1, "A", d.Net("a"))
	mustConnect(u1, "B", d.Net("b"))
	mustConnect(u1, "Z", n1)
	mustConnect(u2, "A", n1)
	mustConnect(u2, "Z", d.Net("z"))
	return d
}

func TestDesignConstruction(t *testing.T) {
	d := buildSmallDesign(t)
	if d.NumInstances() != 2 {
		t.Fatalf("NumInstances = %d", d.NumInstances())
	}
	if d.NumNets() != 4 {
		t.Fatalf("NumNets = %d, want 4 (a, b, z, n1)", d.NumNets())
	}
	if len(d.Ports()) != 3 {
		t.Fatalf("Ports = %d", len(d.Ports()))
	}
	if errs := d.Check(); len(errs) != 0 {
		t.Fatalf("Check reported errors: %v", errs)
	}
	// Net connectivity.
	n1 := d.Net("n1")
	if n1.Driver.Inst == nil || n1.Driver.Inst.Name != "u1" || n1.Driver.Pin != "Z" {
		t.Fatalf("n1 driver = %v", n1.Driver)
	}
	if len(n1.Loads) != 1 || n1.Loads[0].Inst.Name != "u2" {
		t.Fatalf("n1 loads = %v", n1.Loads)
	}
	// Port nets.
	a := d.Net("a")
	if !a.Driver.IsPort() || a.Driver.Port.Name != "a" {
		t.Fatalf("input port a should drive its net, got %v", a.Driver)
	}
	z := d.Net("z")
	if len(z.Loads) != 1 || !z.Loads[0].IsPort() {
		t.Fatalf("output port z should load its net, got %v", z.Loads)
	}
	if loads := d.Instance("u1").Conn("Z").Loads; len(loads) != 1 {
		t.Fatalf("u1 drives %d loads, want 1", len(loads))
	}
}

func TestDesignErrorPaths(t *testing.T) {
	lib := celllib.Default65nm()
	d := NewDesign("err", lib)
	if _, err := d.AddPort("p", In); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddPort("p", In); err == nil {
		t.Error("duplicate port should fail")
	}
	if _, err := d.AddNet("p"); err == nil {
		t.Error("duplicate net should fail")
	}
	if _, err := d.AddInstance("i1", "NOPE", ""); err == nil {
		t.Error("unknown master should fail")
	}
	if _, err := d.AddInstance("i1", "INV_X1", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddInstance("i1", "INV_X1", ""); err == nil {
		t.Error("duplicate instance should fail")
	}
	inst := d.Instance("i1")
	if err := d.Connect(inst, "Q", d.Net("p")); err == nil {
		t.Error("unknown pin should fail")
	}
	if err := d.Connect(inst, "A", d.Net("p")); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(inst, "A", d.Net("p")); err == nil {
		t.Error("double connection of a pin should fail")
	}
	// Two drivers on one net.
	n := d.GetOrCreateNet("n")
	if err := d.Connect(inst, "Z", n); err != nil {
		t.Fatal(err)
	}
	i2, _ := d.AddInstance("i2", "INV_X1", "")
	if err := d.Connect(i2, "Z", n); err == nil {
		t.Error("second driver on a net should fail")
	}
	// Input port on an already-driven net.
	if _, err := d.AddPort("n", In); err == nil {
		t.Error("input port on a driven net should fail")
	}
}

func TestCheckFindsProblems(t *testing.T) {
	lib := celllib.Default65nm()
	d := NewDesign("broken", lib)
	inst, _ := d.AddInstance("u1", "NAND2_X1", "")
	n := d.GetOrCreateNet("n")
	// Leave pins unconnected and give net a load but no driver.
	if err := d.Connect(inst, "A", n); err != nil {
		t.Fatal(err)
	}
	errs := d.Check()
	if len(errs) < 2 {
		t.Fatalf("Check should report unconnected pins and undriven net, got %v", errs)
	}
}

func TestCheckIgnoresFillerPins(t *testing.T) {
	lib := celllib.Default65nm()
	d := NewDesign("f", lib)
	if _, err := d.AddInstance("fill", "FILL4", ""); err != nil {
		t.Fatal(err)
	}
	if errs := d.Check(); len(errs) != 0 {
		t.Fatalf("filler cells need no connections, got %v", errs)
	}
}

func TestUnitsAndArea(t *testing.T) {
	d := buildSmallDesign(t)
	units := d.Units()
	if len(units) != 1 || units[0] != "blockA" {
		t.Fatalf("Units = %v", units)
	}
	in := d.InstancesInUnit("blockA")
	if len(in) != 1 || in[0].Name != "u1" {
		t.Fatalf("InstancesInUnit = %v", in)
	}
	lib := d.Lib
	want := lib.Master("NAND2_X1").Area(lib.RowHeight) + lib.Master("INV_X1").Area(lib.RowHeight)
	if got := d.TotalCellArea(); got != want {
		t.Fatalf("TotalCellArea = %v, want %v", got, want)
	}
}

func TestTotalCellAreaExcludesFillers(t *testing.T) {
	d := buildSmallDesign(t)
	before := d.TotalCellArea()
	if _, err := d.AddInstance("fillX", "FILL16", ""); err != nil {
		t.Fatal(err)
	}
	if d.TotalCellArea() != before {
		t.Fatal("filler cells must not count towards cell area")
	}
}

func TestPinRefString(t *testing.T) {
	d := buildSmallDesign(t)
	n1 := d.Net("n1")
	if n1.Driver.String() != "u1.Z" {
		t.Fatalf("Driver.String = %q", n1.Driver.String())
	}
	a := d.Net("a")
	if a.Driver.String() != "a" {
		t.Fatalf("port ref String = %q", a.Driver.String())
	}
}

func TestPortDirString(t *testing.T) {
	if In.String() != "input" || Out.String() != "output" {
		t.Fatal("PortDir.String mismatch")
	}
}

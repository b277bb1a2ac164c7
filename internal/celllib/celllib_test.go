package celllib

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

func TestDefault65nmSanity(t *testing.T) {
	lib := Default65nm()
	if lib.Name != "core65lite" {
		t.Fatalf("library name = %q", lib.Name)
	}
	if lib.RowHeight <= 0 || lib.SiteWidth <= 0 || lib.Vdd <= 0 {
		t.Fatal("technology parameters must be positive")
	}
	if n := len(lib.Masters()); n < 20 {
		t.Fatalf("expected a reasonably rich library, got %d masters", n)
	}
	for _, name := range []string{"INV_X1", "NAND2_X1", "XOR2_X1", "DFF_X1", "MAJ3_X1", "XOR3_X1", "FILL1", "FILL64"} {
		if lib.Master(name) == nil {
			t.Errorf("missing expected master %q", name)
		}
	}
}

func TestMasterWidthsAreSiteMultiples(t *testing.T) {
	lib := Default65nm()
	for _, m := range lib.Masters() {
		snapped := lib.SnapToSite(m.Width)
		if diff := snapped - m.Width; diff > 1e-9 {
			t.Errorf("master %s width %g is not a site multiple (snaps to %g)", m.Name, m.Width, snapped)
		}
	}
}

func TestFillersHaveZeroPower(t *testing.T) {
	lib := Default65nm()
	fillers := lib.Fillers()
	if len(fillers) < 3 {
		t.Fatalf("expected several filler sizes, got %d", len(fillers))
	}
	for _, f := range fillers {
		if !f.Filler {
			t.Errorf("%s returned by Fillers but not marked Filler", f.Name)
		}
		if f.Leakage != 0 || f.SwitchEnergy != 0 {
			t.Errorf("filler %s must consume zero power", f.Name)
		}
		if f.Function != FuncNone {
			t.Errorf("filler %s must have no logic function", f.Name)
		}
	}
	// Fillers must be sorted by decreasing width.
	for i := 1; i < len(fillers); i++ {
		if fillers[i].Width > fillers[i-1].Width {
			t.Fatalf("Fillers not sorted by decreasing width: %v then %v", fillers[i-1].Width, fillers[i].Width)
		}
	}
}

func TestMasterAccessors(t *testing.T) {
	lib := Default65nm()
	nand := lib.Master("NAND2_X1")
	if nand == nil {
		t.Fatal("NAND2_X1 missing")
	}
	if got := nand.Inputs(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("Inputs = %v", got)
	}
	if nand.OutputPin() != "Z" {
		t.Fatalf("OutputPin = %q", nand.OutputPin())
	}
	if nand.PinCap("A") <= 0 {
		t.Fatal("pin A must have positive capacitance")
	}
	if nand.PinCap("nope") != 0 {
		t.Fatal("unknown pin must have zero capacitance")
	}
	if a := nand.Area(lib.RowHeight); a != nand.Width*lib.RowHeight {
		t.Fatalf("Area = %v", a)
	}
}

func TestAddMasterValidation(t *testing.T) {
	lib := NewLibrary("t", 2, 0.2, 1)
	ok := &Master{Name: "G", Width: 1, Pins: []Pin{{Name: "A", Dir: Input, Cap: 1}, {Name: "Z", Dir: Output}}, Function: FuncInv}
	if err := lib.AddMaster(ok); err != nil {
		t.Fatalf("AddMaster(ok) = %v", err)
	}
	cases := []struct {
		name string
		m    *Master
	}{
		{"empty name", &Master{Width: 1}},
		{"duplicate", &Master{Name: "G", Width: 1, Pins: ok.Pins}},
		{"bad width", &Master{Name: "W", Width: 0, Pins: ok.Pins}},
		{"no output", &Master{Name: "N", Width: 1, Pins: []Pin{{Name: "A", Dir: Input}}}},
		{"powered filler", &Master{Name: "F", Width: 1, Filler: true, Leakage: 5}},
		{"function wants more inputs", &Master{Name: "X3", Width: 1, Pins: []Pin{{Name: "A", Dir: Input}, {Name: "B", Dir: Input}, {Name: "Z", Dir: Output}}, Function: FuncXor3}},
		{"function wants fewer inputs", &Master{Name: "I2", Width: 1, Pins: []Pin{{Name: "A", Dir: Input}, {Name: "B", Dir: Input}, {Name: "Z", Dir: Output}}, Function: FuncInv}},
		{"combinational DFF", &Master{Name: "CD", Width: 1, Pins: []Pin{{Name: "D", Dir: Input}, {Name: "Z", Dir: Output}}, Function: FuncDFF}},
		{"combinational NONE", &Master{Name: "CN", Width: 1, Pins: []Pin{{Name: "Z", Dir: Output}}, Function: FuncNone}},
		{"sequential not DFF", &Master{Name: "SQ", Width: 1, Pins: []Pin{{Name: "D", Dir: Input}, {Name: "CK", Dir: Input}, {Name: "Z", Dir: Output}}, Function: FuncBuf, Sequential: true}},
		{"duplicate pin", &Master{Name: "DP", Width: 1, Pins: []Pin{{Name: "A", Dir: Input, Cap: 1}, {Name: "A", Dir: Input, Cap: 2}, {Name: "Z", Dir: Output}}, Function: FuncNand2}},
	}
	for _, c := range cases {
		if err := lib.AddMaster(c.m); err == nil {
			t.Errorf("AddMaster(%s) should fail", c.name)
		}
	}
}

// TestFlipFlopPins holds AddMaster's pin rule: a flip-flop's clock pin is
// its one input named ck, clk, clock, cp, ckb or clkb in any case, its data
// pin the one other input, and anything else is a PinError naming the
// master and its inputs.
func TestFlipFlopPins(t *testing.T) {
	flop := func(name string, inputs ...string) *Master {
		m := &Master{Name: name, Width: 1, Function: FuncDFF, Sequential: true}
		for _, in := range inputs {
			m.Pins = append(m.Pins, Pin{Name: in, Dir: Input, Cap: 1})
		}
		m.Pins = append(m.Pins, Pin{Name: "Q", Dir: Output})
		return m
	}
	lib := NewLibrary("t", 2, 0.2, 1)
	for _, c := range []struct{ m, clock, data string }{
		{"F1", "CK", "D"}, {"F2", "CP", "DIN"}, {"F3", "Clk", "D"}, {"F4", "clock", "x"}, {"F5", "CKB", "SD"},
	} {
		m := flop(c.m, c.data, c.clock)
		if err := lib.AddMaster(m); err != nil {
			t.Fatalf("AddMaster(%s): %v", c.m, err)
		}
		if m.ClockPin() != c.clock || m.DataPin() != c.data {
			t.Errorf("%s: clock %q data %q, want %q and %q", c.m, m.ClockPin(), m.DataPin(), c.clock, c.data)
		}
	}
	if nand := Default65nm().Master("NAND2_X1"); nand.ClockPin() != "" || nand.DataPin() != "" {
		t.Errorf("a combinational master resolves clock %q data %q", nand.ClockPin(), nand.DataPin())
	}
	for _, c := range []struct {
		name   string
		inputs []string
	}{
		{"clock named outside the rule", []string{"D", "G"}},
		{"third input", []string{"D", "CK", "EN"}},
		{"two clocks", []string{"CK", "CLK"}},
		{"no data pin", []string{"CK"}},
	} {
		err := lib.AddMaster(flop("BAD", c.inputs...))
		var pe *PinError
		if !errors.As(err, &pe) || pe.Master != "BAD" || !slices.Equal(pe.Inputs, c.inputs) {
			t.Errorf("%s: AddMaster error %v, want a PinError naming BAD and inputs %v", c.name, err, c.inputs)
		}
	}
}

func TestSnapToSite(t *testing.T) {
	lib := NewLibrary("t", 2, 0.2, 1)
	cases := []struct{ in, want float64 }{
		{0.2, 0.2}, {0.25, 0.4}, {0.39, 0.4}, {0.4, 0.4}, {1.0, 1.0}, {1.01, 1.2},
	}
	for _, c := range cases {
		if got := lib.SnapToSite(c.in); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("SnapToSite(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMastersSorted(t *testing.T) {
	lib := Default65nm()
	ms := lib.Masters()
	for i := 1; i < len(ms); i++ {
		if ms[i].Name < ms[i-1].Name {
			t.Fatal("Masters() must be sorted by name")
		}
	}
}

func TestPinDirString(t *testing.T) {
	if Input.String() != "input" || Output.String() != "output" {
		t.Fatal("PinDir.String mismatch")
	}
}

func TestLibertyRoundTrip(t *testing.T) {
	lib := Default65nm()
	var buf strings.Builder
	if err := WriteLiberty(&buf, lib); err != nil {
		t.Fatalf("WriteLiberty: %v", err)
	}
	got, err := ParseLiberty(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("ParseLiberty: %v", err)
	}
	if got.Name != lib.Name || got.Vdd != lib.Vdd || got.RowHeight != lib.RowHeight || got.SiteWidth != lib.SiteWidth {
		t.Fatalf("library header mismatch: %+v", got)
	}
	if got.WireCapPerUm != lib.WireCapPerUm || got.WireResPerUm != lib.WireResPerUm {
		t.Fatal("wire parameters did not round-trip")
	}
	if len(got.Masters()) != len(lib.Masters()) {
		t.Fatalf("master count %d != %d", len(got.Masters()), len(lib.Masters()))
	}
	for _, want := range lib.Masters() {
		m := got.Master(want.Name)
		if m == nil {
			t.Fatalf("master %s lost in round trip", want.Name)
		}
		if m.Width != want.Width || m.Function != want.Function || m.DriveRes != want.DriveRes ||
			m.Intrinsic != want.Intrinsic || m.Leakage != want.Leakage || m.SwitchEnergy != want.SwitchEnergy ||
			m.Sequential != want.Sequential || m.Filler != want.Filler {
			t.Errorf("master %s attributes changed: got %+v want %+v", want.Name, m, want)
		}
		if len(m.Pins) != len(want.Pins) {
			t.Errorf("master %s pin count %d != %d", want.Name, len(m.Pins), len(want.Pins))
		}
		for _, p := range want.Pins {
			if m.PinCap(p.Name) != p.Cap {
				t.Errorf("master %s pin %s cap mismatch", want.Name, p.Name)
			}
		}
	}
}

func TestParseLibertyErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"truncated", "library(x) { voltage : 1.0;"},
		{"bad attribute", "library(x) { bogus : 1.0; }"},
		{"bad number", "library(x) { voltage : abc; }"},
		{"bad cell attr", "library(x) { cell(C) { nonsense : 2; } }"},
		{"bad pin dir", "library(x) { cell(C) { width : 1; function : \"INV\"; pin(A) { direction : sideways; } pin(Z) { direction : output; } } }"},
		{"bad function", "library(x) { cell(C) { width : 1; function : \"WAT\"; pin(Z) { direction : output; } } }"},
		{"function disagrees with pins", "library(x) { cell(C) { width : 1; function : \"XOR3\"; pin(A) { direction : input; } pin(B) { direction : input; } pin(Z) { direction : output; } } }"},
		{"duplicate pin", "library(x) { cell(C) { width : 1; function : \"NAND2\"; pin(A) { direction : input; cap : 1; } pin(A) { direction : input; cap : 2; } pin(Z) { direction : output; } } }"},
		{"flip-flop clock named outside the rule", "library(x) { cell(F) { width : 1; function : \"DFF\"; sequential : true; pin(D) { direction : input; } pin(G) { direction : input; } pin(Q) { direction : output; } } }"},
		{"duplicate cell", "library(x) { cell(C) { width : 1; function : \"INV\"; pin(A) { direction : input; } pin(Z) { direction : output; } } cell(C) { width : 1; function : \"INV\"; pin(A) { direction : input; } pin(Z) { direction : output; } } }"},
	}
	for _, c := range cases {
		if _, err := ParseLiberty(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

func TestParseLibertyWithComments(t *testing.T) {
	in := `// a comment line
library(tiny) {
  voltage : 1.2; // trailing comment
  cell(INV) {
    width : 0.6;
    function : "INV";
    pin(A) { direction : input; cap : 1.5; }
    pin(Z) { direction : output; }
  }
}`
	lib, err := ParseLiberty(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseLiberty: %v", err)
	}
	if lib.Vdd != 1.2 {
		t.Fatalf("Vdd = %v", lib.Vdd)
	}
	m := lib.Master("INV")
	if m == nil || m.Function != FuncInv || m.PinCap("A") != 1.5 {
		t.Fatalf("parsed master wrong: %+v", m)
	}
}

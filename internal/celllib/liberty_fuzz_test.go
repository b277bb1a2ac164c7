package celllib

import (
	"math"
	"strings"
	"testing"
)

// FuzzParseLiberty holds the Liberty-lite reader to its contract: no input
// panics, every numeric field of a parsed library is finite and in range,
// every master's pin names are unique and its function agrees with its
// pins, every flip-flop has a clock and a data pin by the name rule, and a
// parsed library writes back to text that parses again and writes the
// same bytes.
//
//	go test -run NONE -fuzz FuzzParseLiberty -fuzztime 30s -fuzzminimizetime 1s ./internal/celllib/
func FuzzParseLiberty(f *testing.F) {
	var def strings.Builder
	if err := WriteLiberty(&def, Default65nm()); err != nil {
		f.Fatal(err)
	}
	f.Add(def.String())
	// XOR2_X1 declared as XOR3: a function that takes more inputs than the
	// cell has pins.
	f.Add(strings.Replace(def.String(), `function : "XOR2"`, `function : "XOR3"`, 1))
	// A NAND2 with two pins named A, and the flip-flops' pins renamed: CK to
	// CP (a clock name) and to G (not one), D to DIN.
	f.Add(strings.Replace(def.String(), "pin(B)", "pin(A)", 1))
	f.Add(strings.NewReplacer("pin(CK)", "pin(CP)", "pin(D)", "pin(DIN)").Replace(def.String()))
	f.Add(strings.Replace(def.String(), "pin(CK)", "pin(G)", 1))
	const small = "library(t) {\n  voltage : 1;\n  cell(INV_X1) {\n    width : 1;\n    function : \"INV\";\n" +
		"    pin(A) { direction : input; cap : 1; }\n    pin(Z) { direction : output; }\n  }\n}\n"
	// Non-finite and out-of-range physical values.
	for _, edit := range [][2]string{
		{"voltage : 1", "voltage : NaN"},
		{"voltage : 1", "voltage : 0"},
		{"voltage : 1", "row_height : -1"},
		{"voltage : 1", "site_width : Inf"},
		{"voltage : 1", "wire_cap_per_um : -0.2"},
		{"width : 1", "width : NaN"},
		{"cap : 1", "cap : Inf"},
		{"cap : 1", "cap : -1"},
		{"width : 1", "width : 1; leakage : -5"},
		{"width : 1", "width : 1; switch_energy : NaN"},
		{"width : 1", "width : 1; intrinsic_delay : -Inf"},
	} {
		f.Add(strings.Replace(small, edit[0], edit[1], 1))
	}

	// Group names that do not write back as a bare name.
	f.Add("library(\"\") {\n}\n")
	f.Add(strings.Replace(small, "cell(INV_X1)", "cell(\"INV X1\")", 1))
	f.Add(strings.Replace(small, "pin(A)", "pin(\"//A\")", 1))

	f.Fuzz(func(t *testing.T, src string) {
		lib, err := ParseLiberty(strings.NewReader(src))
		if err != nil {
			return
		}
		checkLibraryRanges(t, lib)
		var first strings.Builder
		if err := WriteLiberty(&first, lib); err != nil {
			t.Fatalf("WriteLiberty: %v", err)
		}
		back, err := ParseLiberty(strings.NewReader(first.String()))
		if err != nil {
			t.Fatalf("written library does not parse back: %v\n%s", err, first.String())
		}
		var second strings.Builder
		if err := WriteLiberty(&second, back); err != nil {
			t.Fatalf("WriteLiberty after round trip: %v", err)
		}
		if first.String() != second.String() {
			t.Fatalf("round trip changed the library:\n%s\n---\n%s", first.String(), second.String())
		}
	})
}

// checkLibraryRanges fails the test on any numeric library, cell or pin
// field that is non-finite or out of its physical range, on any master
// with two pins of one name or whose function disagrees with its pins, and
// on any flip-flop whose resolved clock and data pins are not its two
// inputs, the clock's lower-cased name on the rule's list.
func checkLibraryRanges(t *testing.T, lib *Library) {
	t.Helper()
	check := func(what string, v float64, positive bool) {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || (positive && v == 0) {
			t.Fatalf("parsed %s = %g is out of range", what, v)
		}
	}
	check("voltage", lib.Vdd, true)
	check("row_height", lib.RowHeight, true)
	check("site_width", lib.SiteWidth, true)
	check("wire_cap_per_um", lib.WireCapPerUm, false)
	check("wire_res_per_um", lib.WireResPerUm, false)
	for _, m := range lib.Masters() {
		check(m.Name+" width", m.Width, true)
		check(m.Name+" drive_res", m.DriveRes, false)
		check(m.Name+" intrinsic_delay", m.Intrinsic, false)
		check(m.Name+" leakage", m.Leakage, false)
		check(m.Name+" switch_energy", m.SwitchEnergy, false)
		switch {
		case m.Filler:
		case m.Sequential:
			if m.Function != FuncDFF {
				t.Fatalf("parsed sequential master %s has function %s", m.Name, m.Function)
			}
			in := m.Inputs()
			ck, data := m.ClockPin(), m.DataPin()
			clockName := map[string]bool{"ck": true, "clk": true, "clock": true, "cp": true, "ckb": true, "clkb": true}
			if len(in) != 2 || !clockName[strings.ToLower(ck)] || clockName[strings.ToLower(data)] ||
				!(in[0] == ck && in[1] == data || in[0] == data && in[1] == ck) {
				t.Fatalf("parsed flip-flop %s has inputs %v, clock pin %q and data pin %q", m.Name, in, ck, data)
			}
		case m.Function == FuncDFF || m.Function == FuncNone || len(m.Inputs()) != m.Function.NumInputs():
			t.Fatalf("parsed master %s has function %s and inputs %v", m.Name, m.Function, m.Inputs())
		}
		for i, p := range m.Pins {
			check(m.Name+"."+p.Name+" cap", p.Cap, false)
			for _, q := range m.Pins[:i] {
				if p.Name == q.Name {
					t.Fatalf("parsed master %s has two pins named %s", m.Name, p.Name)
				}
			}
		}
	}
}

package netlist_test

import (
	"strings"
	"testing"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/netlist"
)

// FuzzParseVerilog holds the Verilog-lite reader to its contract: no input
// panics or hangs, every failure is a returned error, and a netlist that
// parses writes back to text that parses again and writes the same bytes.
//
//	go test -run NONE -fuzz FuzzParseVerilog -fuzztime 30s -fuzzminimizetime 1s ./internal/netlist/
func FuzzParseVerilog(f *testing.F) {
	lib := celllib.Default65nm()
	d, err := bench.Generate(lib, bench.SmallConfig())
	if err != nil {
		f.Fatal(err)
	}
	var small strings.Builder
	if err := netlist.WriteVerilog(&small, d); err != nil {
		f.Fatal(err)
	}
	f.Add(small.String())
	// A declaration cut off by the end of input.
	f.Add("module top (a, b, z);\n input")
	f.Add("module top (a, b, z);\n input a, b;\n output z;\n wire n1")
	// Punctuation where a net name belongs, and a net name that writes
	// back as "a*)", the attribute close.
	f.Add("module top (a, b, z);\n input a, b;\n output z;\n NAND2_X1 u1 (.A(a), .B(;), .Z(z));\nendmodule\n")
	f.Add("module top (a, z);\n input a;\n output z;\n wire a*;\n INV_X1 u1 (.A(a* ), .Z(z));\nendmodule\n")

	f.Fuzz(func(t *testing.T, src string) {
		d, err := netlist.ParseVerilog(strings.NewReader(src), lib)
		if err != nil {
			return
		}
		var first strings.Builder
		if err := netlist.WriteVerilog(&first, d); err != nil {
			t.Fatalf("WriteVerilog: %v", err)
		}
		back, err := netlist.ParseVerilog(strings.NewReader(first.String()), lib)
		if err != nil {
			t.Fatalf("written netlist does not parse back: %v\n%s", err, first.String())
		}
		var second strings.Builder
		if err := netlist.WriteVerilog(&second, back); err != nil {
			t.Fatalf("WriteVerilog after round trip: %v", err)
		}
		if first.String() != second.String() {
			t.Fatalf("round trip changed the netlist:\n%s\n---\n%s", first.String(), second.String())
		}
	})
}

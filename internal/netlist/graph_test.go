package netlist

import (
	"errors"
	"strings"
	"testing"

	"thermplace/internal/celllib"
)

// levelizeModule parses a Verilog-lite module body over the default library,
// with inputs clk, a, b and output z, and levelizes it.
func levelizeModule(t *testing.T, body string) (*Design, *Graph, error) {
	t.Helper()
	src := "module m (clk, a, b, z);\n  input clk, a, b;\n  output z;\n" + body + "\nendmodule\n"
	d, err := ParseVerilog(strings.NewReader(src), celllib.Default65nm())
	if err != nil {
		t.Fatal(err)
	}
	g, err := d.Levelize()
	return d, g, err
}

func TestLevelizeOrdersGatesAndFindsClocks(t *testing.T) {
	d, g, err := levelizeModule(t, `
  INV_X1 u2 (.A(n1), .Z(z));
  NAND2_X1 u1 (.A(a), .B(q), .Z(n1));
  BUF_X1 cb (.A(clk), .Z(ck1));
  INV_X1 ci (.A(ck1), .Z(ck2));
  DFF_X1 ff (.D(n1), .CK(ck2), .Z(q));
  FILL4 f ();`)
	if err != nil {
		t.Fatal(err)
	}
	names := func(ords []int32) string {
		var s []string
		for _, o := range ords {
			s = append(s, d.Nets()[o].Name)
		}
		return strings.Join(s, " ")
	}
	var gates []string
	for i, inst := range g.Gates {
		gates = append(gates, inst.Name+"("+names(g.In[g.InStart[i]:g.InStart[i+1]])+")->"+names(g.Out[i:i+1]))
	}
	// Kahn's queue is seeded in design order (u1, cb) and appends u2 and ci
	// as their drivers are popped.
	if got, want := strings.Join(gates, " "), "u1(a q)->n1 cb(clk)->ck1 u2(n1)->z ci(ck1)->ck2"; got != want {
		t.Errorf("gates %q, want %q", got, want)
	}
	if len(g.Flops) != 1 || g.Flops[0].Name != "ff" || names(g.FlopD) != "n1" || names(g.FlopQ) != "q" {
		t.Errorf("flops %v with data %q and outputs %q, want ff with n1 and q", g.Flops, names(g.FlopD), names(g.FlopQ))
	}
	if got := names(g.Clocks); got != "ck2 ck1 clk" {
		t.Errorf("clock nets %q, want the flip-flop's ck2 back to the clk port", got)
	}
}

func TestLevelizeErrors(t *testing.T) {
	cases := []struct {
		name, body, inst, reason string
	}{
		{"gate input", "NAND2_X1 u1 (.A(a), .Z(z));", "u1", `pin "B" unconnected`},
		{"gate output", "INV_X1 u1 (.A(a));", "u1", `pin "Z" unconnected`},
		{"flip-flop clock", "DFF_X1 ff (.D(a), .Z(z));", "ff", `pin "CK" unconnected`},
		{"flip-flop data", "DFF_X1 ff (.CK(clk), .Z(z));", "ff", `pin "D" unconnected`},
		{"flip-flop output", "DFF_X1 ff (.D(a), .CK(clk));", "ff", `pin "Z" unconnected`},
		{"loop", "BUF_X1 u0 (.A(a), .Z(z)); INV_X1 u1 (.A(n2), .Z(n1)); INV_X1 u2 (.A(n1), .Z(n2));", "u1", "combinational loop (2 of 3 gates"},
		{"gated clock", "AND2_X1 g (.A(clk), .B(a), .Z(gck)); DFF_X1 ff (.D(b), .CK(gck), .Z(z));", "ff", `through "g" (AND2_X1)`},
		{"gated behind a buffer", "AND2_X1 g (.A(clk), .B(a), .Z(gck)); BUF_X1 cb (.A(gck), .Z(bck)); DFF_X1 ff (.D(b), .CK(bck), .Z(z));", "ff", `through "g" (AND2_X1)`},
		{"derived clock", "DFF_X1 f1 (.D(a), .CK(clk), .Z(q1)); DFF_X1 f2 (.D(b), .CK(q1), .Z(z));", "f2", `through "f1" (DFF_X1)`},
		{"floating clock", "DFF_X1 ff (.D(a), .CK(nowhere), .Z(z));", "ff", `through undriven net "nowhere"`},
	}
	for _, c := range cases {
		_, _, err := levelizeModule(t, c.body)
		var ge *GraphError
		if !errors.As(err, &ge) || ge.Inst != c.inst || !strings.Contains(ge.Reason, c.reason) {
			t.Errorf("%s: Levelize error %v, want a GraphError on %q containing %q", c.name, err, c.inst, c.reason)
		}
	}
}

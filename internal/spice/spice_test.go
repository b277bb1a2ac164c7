package spice

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// voltageDivider builds V=10 -> R1=1k -> mid -> R2=3k -> ground.
// Expected: v(mid) = 10 * 3k/(1k+3k) = 7.5.
func voltageDivider(t *testing.T) *Circuit {
	t.Helper()
	c := NewCircuit()
	if err := c.AddVoltageSource("src", "top", 10); err != nil {
		t.Fatal(err)
	}
	if err := c.AddResistor("1", "top", "mid", 1000); err != nil {
		t.Fatal(err)
	}
	if err := c.AddResistor("2", "mid", "0", 3000); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestVoltageDividerAllMethods(t *testing.T) {
	for _, m := range []Method{MethodCG, MethodGaussSeidel, MethodDense} {
		c := voltageDivider(t)
		sol, err := c.Solve(SolveOptions{Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !almostEqual(sol.Voltages["mid"], 7.5, 1e-6) {
			t.Errorf("%v: v(mid) = %g, want 7.5", m, sol.Voltages["mid"])
		}
		if sol.Voltages["top"] != 10 || sol.Voltages["0"] != 0 {
			t.Errorf("%v: fixed node voltages wrong: %v", m, sol.Voltages)
		}
	}
}

func TestCurrentSourceIntoResistor(t *testing.T) {
	// 1 mA into node n through 2 kOhm to ground: v(n) = 2 V.
	c := NewCircuit()
	if err := c.AddCurrentSource("in", "0", "n", 1e-3); err != nil {
		t.Fatal(err)
	}
	if err := c.AddResistor("g", "n", "0", 2000); err != nil {
		t.Fatal(err)
	}
	sol, err := c.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(sol.Voltages["n"], 2.0, 1e-9) {
		t.Fatalf("v(n) = %g, want 2", sol.Voltages["n"])
	}
}

func TestWheatstoneBridge(t *testing.T) {
	// Balanced bridge: equal arms, the bridge resistor carries no current so
	// both mid nodes sit at half the source voltage.
	c := NewCircuit()
	mustV := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mustV(c.AddVoltageSource("s", "vin", 8))
	mustV(c.AddResistor("a1", "vin", "l", 100))
	mustV(c.AddResistor("a2", "l", "0", 100))
	mustV(c.AddResistor("b1", "vin", "r", 200))
	mustV(c.AddResistor("b2", "r", "0", 200))
	mustV(c.AddResistor("bridge", "l", "r", 50))
	sol, err := c.Solve(SolveOptions{Method: MethodDense})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(sol.Voltages["l"], 4, 1e-9) || !almostEqual(sol.Voltages["r"], 4, 1e-9) {
		t.Fatalf("bridge voltages %g / %g, want 4 / 4", sol.Voltages["l"], sol.Voltages["r"])
	}
}

func TestSolversAgreeOnGridNetwork(t *testing.T) {
	// A small 2-D resistor grid with a few sources; all three solvers must
	// agree on the node voltages.
	build := func() *Circuit {
		c := NewCircuit()
		n := 6
		name := func(i, j int) string { return fmt.Sprintf("n%d_%d", i, j) }
		rCount := 0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i+1 < n {
					rCount++
					_ = c.AddResistor(fmt.Sprintf("h%d", rCount), name(i, j), name(i+1, j), 10)
				}
				if j+1 < n {
					rCount++
					_ = c.AddResistor(fmt.Sprintf("v%d", rCount), name(i, j), name(i, j+1), 10)
				}
			}
		}
		// Boundary ties to a 25 V reference (ambient) on the four corners.
		for k, corner := range []string{name(0, 0), name(0, n-1), name(n-1, 0), name(n-1, n-1)} {
			_ = c.AddResistor(fmt.Sprintf("amb%d", k), corner, "amb", 5)
		}
		_ = c.AddVoltageSource("vamb", "amb", 25)
		_ = c.AddCurrentSource("p1", "0", name(2, 2), 0.5)
		_ = c.AddCurrentSource("p2", "0", name(3, 4), 0.25)
		return c
	}
	ref, err := build().Solve(SolveOptions{Method: MethodDense})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodCG, MethodGaussSeidel} {
		sol, err := build().Solve(SolveOptions{Method: m, Tolerance: 1e-11})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		for node, want := range ref.Voltages {
			if !almostEqual(sol.Voltages[node], want, 1e-5*math.Max(1, math.Abs(want))) {
				t.Fatalf("%v: node %s = %g, dense reference %g", m, node, sol.Voltages[node], want)
			}
		}
		if sol.Iterations <= 0 {
			t.Errorf("%v: expected iterative work, got %d iterations", m, sol.Iterations)
		}
	}
}

func TestSuperpositionProperty(t *testing.T) {
	// Property: for a fixed resistive network, node voltages are linear in
	// the injected currents (superposition).
	build := func(i1, i2 float64) map[string]float64 {
		c := NewCircuit()
		_ = c.AddResistor("a", "x", "0", 100)
		_ = c.AddResistor("b", "x", "y", 50)
		_ = c.AddResistor("c", "y", "0", 200)
		_ = c.AddCurrentSource("s1", "0", "x", i1)
		_ = c.AddCurrentSource("s2", "0", "y", i2)
		sol, err := c.Solve(SolveOptions{Method: MethodDense})
		if err != nil {
			t.Fatal(err)
		}
		return sol.Voltages
	}
	f := func(a, b uint8) bool {
		i1 := float64(a) / 100
		i2 := float64(b) / 100
		v1 := build(i1, 0)
		v2 := build(0, i2)
		v12 := build(i1, i2)
		for _, node := range []string{"x", "y"} {
			if !almostEqual(v12[node], v1[node]+v2[node], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCircuitValidation(t *testing.T) {
	c := NewCircuit()
	if err := c.AddResistor("r1", "a", "b", 10); err != nil {
		t.Fatal(err)
	}
	if err := c.AddResistor("r1", "a", "c", 10); err == nil {
		t.Error("duplicate element name must fail")
	}
	if err := c.AddResistor("bad", "a", "a", 10); err == nil {
		t.Error("self-loop resistor must fail")
	}
	if err := c.AddResistor("neg", "a", "c", -5); err == nil {
		t.Error("negative resistance must fail")
	}
	if err := c.AddVoltageSource("vg", "0", 5); err == nil {
		t.Error("voltage source on ground must fail")
	}
	if err := c.AddResistor("", "a", "c", 5); err == nil {
		t.Error("empty element name must fail")
	}
}

func TestFloatingNodeRejected(t *testing.T) {
	c := NewCircuit()
	_ = c.AddResistor("r1", "a", "b", 10)
	_ = c.AddCurrentSource("i1", "0", "a", 1)
	// Neither a nor b has a path to ground or a voltage source.
	if _, err := c.Solve(SolveOptions{}); err == nil {
		t.Fatal("floating subnetwork must be rejected")
	}
}

func TestConflictingVoltageSources(t *testing.T) {
	c := NewCircuit()
	_ = c.AddVoltageSource("v1", "a", 5)
	_ = c.AddVoltageSource("v2", "a", 7)
	_ = c.AddResistor("r", "a", "0", 10)
	if _, err := c.Solve(SolveOptions{}); err == nil {
		t.Fatal("conflicting voltage sources on one node must be rejected")
	}
}

func TestOnlyKnownNodes(t *testing.T) {
	// A circuit with no unknowns (source directly across a resistor).
	c := NewCircuit()
	_ = c.AddVoltageSource("v", "a", 3)
	_ = c.AddResistor("r", "a", "0", 10)
	sol, err := c.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Voltages["a"] != 3 {
		t.Fatalf("v(a) = %g", sol.Voltages["a"])
	}
}

func TestDenseRefusesHugeSystems(t *testing.T) {
	c := NewCircuit()
	prev := "0"
	for i := 0; i < 6100; i++ {
		node := fmt.Sprintf("n%d", i)
		_ = c.AddResistor(fmt.Sprintf("r%d", i), prev, node, 1)
		prev = node
	}
	_ = c.AddCurrentSource("i", "0", prev, 1)
	if _, err := c.Solve(SolveOptions{Method: MethodDense}); err == nil {
		t.Fatal("dense solver must refuse very large systems")
	}
}

func TestAccessors(t *testing.T) {
	c := voltageDivider(t)
	if c.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", c.NumNodes())
	}
	if c.NumElements() != 3 {
		t.Fatalf("NumElements = %d", c.NumElements())
	}
	if len(c.Resistors()) != 2 || len(c.VoltageSources()) != 1 || len(c.CurrentSources()) != 0 {
		t.Fatal("element accessors wrong")
	}
	nodes := c.Nodes()
	if len(nodes) != 3 || nodes[0] != "0" {
		t.Fatalf("Nodes = %v", nodes)
	}
	for _, m := range []Method{MethodCG, MethodGaussSeidel, MethodDense, Method(99)} {
		if m.String() == "" {
			t.Error("empty method string")
		}
	}
}

// TestWriteDeckDivider pins the exact deck text: the title comment, then
// resistors, current sources and voltage sources in insertion order, then
// .end.
func TestWriteDeckDivider(t *testing.T) {
	c := voltageDivider(t)
	if err := c.AddCurrentSource("inj", "0", "mid", 0.001); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WriteDeck(&buf, c, "divider test"); err != nil {
		t.Fatal(err)
	}
	want := `* divider test
R1 top mid 1000
R2 mid 0 3000
Iinj 0 mid 0.001
Vsrc top 0 10
.end
`
	if got := buf.String(); got != want {
		t.Fatalf("deck:\n%s\nwant:\n%s", got, want)
	}
}

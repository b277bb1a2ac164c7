// Package logicsim is a cycle-based gate-level logic simulator used to
// derive per-net switching activities from randomly generated test vectors,
// playing the role Synopsys VCS plays in the paper's flow.
//
// Semantics are zero-delay and cycle-based: within a clock cycle all
// combinational logic settles instantly, flip-flops capture their data inputs
// on the (implicit) rising clock edge, and toggle counts are taken between
// the settled states of consecutive cycles. Glitch power is therefore
// excluded, which matches the averaged-activity power-estimation flow the
// paper relies on.
//
// New compiles the design's levelized graph (netlist.Design.Levelize) once:
// every net becomes a byte indexed by its ordinal, and every combinational
// instance, in the graph's topological order, an 8-bit truth table over at
// most three input ordinals, derived from its master's celllib.Func.Eval.
// The graph's clock nets, buffered ones included, read two transitions
// per cycle.
package logicsim

import (
	"fmt"
	"slices"
	"strings"

	"thermplace/internal/celllib"
	"thermplace/internal/netlist"
)

// Simulator simulates one design instance.
type Simulator struct {
	design *netlist.Design

	// v holds each net's value (0 or 1) by net ordinal, plus one constant-0
	// slot at index NumNets() that unused gate inputs read.
	v       []uint8
	prev    []uint8
	toggles []int64

	// gates holds the combinational instances in topological order.
	gates []gate
	// dffD and dffQ are the flip-flops' D and output net ordinals; state
	// holds the value each captured at the last clock edge.
	dffD, dffQ []int32
	state      []uint8
	// inputs are the drivable primary inputs (clocks excluded), sorted by
	// port name: the order RunRandom draws their stimulus in.
	inputs []input
	// clocks are the graph's clock nets; the input ports among them keep
	// value 0, and every one reports two transitions per cycle.
	clocks []int32

	cycles int
}

// gate is one compiled combinational instance: bit k of the table index is
// input k in Master.Inputs() order, and an unused input reads the
// constant-0 slot.
type gate struct {
	tt  uint8
	out int32
	in  [3]int32
}

type input struct {
	name string
	net  int32
}

// New compiles a simulator for the design from its levelized graph. It
// returns an error when netlist.Design.Levelize does, or when the design
// contains masters the simulator cannot evaluate.
func New(d *netlist.Design) (*Simulator, error) {
	g, err := d.Levelize()
	if err != nil {
		return nil, fmt.Errorf("logicsim: %w", err)
	}
	n := d.NumNets()
	s := &Simulator{
		design:  d,
		v:       make([]uint8, n+1),
		prev:    make([]uint8, n),
		toggles: make([]int64, n),
		gates:   make([]gate, len(g.Gates)),
		dffD:    g.FlopD,
		dffQ:    g.FlopQ,
		state:   make([]uint8, len(g.Flops)),
		clocks:  g.Clocks,
	}
	for _, p := range d.Ports() {
		if p.Dir == netlist.In && !slices.Contains(g.Clocks, int32(p.Net.Ord())) {
			s.inputs = append(s.inputs, input{name: p.Name, net: int32(p.Net.Ord())})
		}
	}
	slices.SortFunc(s.inputs, func(a, b input) int { return strings.Compare(a.name, b.name) })

	tables := make(map[*celllib.Master]uint8)
	for i, inst := range g.Gates {
		m := inst.Master
		tt, ok := tables[m]
		if !ok {
			if tt, err = truthTable(m); err != nil {
				return nil, err
			}
			tables[m] = tt
		}
		s.gates[i] = gate{tt: tt, out: g.Out[i], in: [3]int32{int32(n), int32(n), int32(n)}}
		copy(s.gates[i].in[:], g.In[g.InStart[i]:g.InStart[i+1]])
	}
	return s, nil
}

// truthTable compiles a combinational master: bit i of the table is the
// function's output when input k carries bit k of i.
func truthTable(m *celllib.Master) (uint8, error) {
	fn, k := m.Function, len(m.Inputs())
	if k > 3 || k != fn.NumInputs() || fn == celllib.FuncDFF {
		return 0, fmt.Errorf("logicsim: master %s: cannot compile function %s over %d inputs", m.Name, fn, k)
	}
	var tt uint8
	in := make([]bool, k)
	for i := 0; i < 8; i++ {
		for b := range in {
			in[b] = i>>b&1 == 1
		}
		if fn.Eval(in) {
			tt |= 1 << i
		}
	}
	return tt, nil
}

// inputNet returns the net ordinal of the named drivable primary input.
func (s *Simulator) inputNet(port string) (int32, bool) {
	i, ok := slices.BinarySearchFunc(s.inputs, port, func(in input, name string) int { return strings.Compare(in.name, name) })
	if !ok {
		return 0, false
	}
	return s.inputs[i].net, true
}

// SetInput sets the value of a primary input for the current cycle.
func (s *Simulator) SetInput(port string, v bool) error {
	net, ok := s.inputNet(port)
	if !ok {
		return fmt.Errorf("logicsim: unknown primary input %q", port)
	}
	s.v[net] = 0
	if v {
		s.v[net] = 1
	}
	return nil
}

// Inputs returns the names of the drivable primary inputs (clock excluded)
// in sorted order, so callers that drive vectors positionally are
// reproducible.
func (s *Simulator) Inputs() []string {
	out := make([]string, len(s.inputs))
	for i, in := range s.inputs {
		out[i] = in.name
	}
	return out
}

// Eval propagates the current input and register values through the
// combinational logic.
func (s *Simulator) Eval() {
	v := s.v
	for i, q := range s.dffQ {
		v[q] = s.state[i]
	}
	for _, g := range s.gates {
		v[g.out] = g.tt >> (v[g.in[0]] | v[g.in[1]]<<1 | v[g.in[2]]<<2) & 1
	}
}

// Step advances one clock cycle: combinational settle, register capture,
// settle again with the new register values, then toggle accounting against
// the previous cycle's settled state.
func (s *Simulator) Step() {
	s.Eval()
	for i, d := range s.dffD {
		s.state[i] = s.v[d]
	}
	s.Eval()
	v := s.v[:len(s.prev)]
	if s.cycles > 0 {
		for i, prev := range s.prev {
			s.toggles[i] += int64(v[i] ^ prev)
		}
	}
	copy(s.prev, v)
	s.cycles++
}

// NetValue returns the current settled value of the named net.
func (s *Simulator) NetValue(name string) (bool, error) {
	n := s.design.Net(name)
	if n == nil {
		return false, fmt.Errorf("logicsim: unknown net %q", name)
	}
	return s.v[n.Ord()] == 1, nil
}

// ReadBus reads port nets named prefix0, prefix1, ... and returns them as an
// unsigned integer (bit 0 = prefix0). Missing indices terminate the bus.
func (s *Simulator) ReadBus(prefix string) (uint64, int) {
	var val uint64
	width := 0
	for i := 0; ; i++ {
		n := s.design.Net(fmt.Sprintf("%s%d", prefix, i))
		if n == nil {
			break
		}
		if s.v[n.Ord()] == 1 && i < 64 {
			val |= 1 << uint(i)
		}
		width++
	}
	return val, width
}

// SetBus drives primary inputs named prefix0.. with the bits of val.
func (s *Simulator) SetBus(prefix string, val uint64) error {
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s%d", prefix, i)
		if _, ok := s.inputNet(name); !ok {
			if i == 0 {
				return fmt.Errorf("logicsim: no input bus %q", prefix)
			}
			return nil
		}
		if err := s.SetInput(name, val&(1<<uint(i)) != 0); err != nil {
			return err
		}
	}
}

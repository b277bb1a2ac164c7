// Package logicsim is a cycle-based gate-level logic simulator used to
// derive per-net switching activities from randomly generated test vectors,
// playing the role Synopsys VCS plays in the paper's flow.
//
// Semantics are zero-delay and cycle-based: within a clock cycle all
// combinational logic settles instantly, flip-flops capture their D inputs
// on the (implicit) rising clock edge, and toggle counts are taken between
// the settled states of consecutive cycles. Glitch power is therefore
// excluded, which matches the averaged-activity power-estimation flow the
// paper relies on.
package logicsim

import (
	"fmt"
	"sort"

	"thermplace/internal/celllib"
	"thermplace/internal/netlist"
)

// Simulator simulates one design instance.
type Simulator struct {
	design *netlist.Design

	netIndex map[*netlist.Net]int
	netNames []string
	values   []bool
	prev     []bool
	toggles  []int64

	// gates holds combinational instances in topological order.
	gates []gate
	// dffs holds the sequential elements.
	dffs []dff
	// inputs maps primary-input port name to net index (clock excluded).
	inputs map[string]int
	// clockNets are nets driven by ports identified as clocks ("clk"/"CK"
	// loads only); their activity is reported as two toggles per cycle.
	clockNets map[int]bool

	cycles int
}

type gate struct {
	inst   *netlist.Instance
	fn     celllib.Func
	inIdx  []int
	outIdx int
}

type dff struct {
	inst   *netlist.Instance
	dIdx   int
	outIdx int
	state  bool
}

// New builds a simulator for the design. It returns an error when the design
// contains combinational loops, undriven nets feeding logic, or masters the
// simulator cannot evaluate.
func New(d *netlist.Design) (*Simulator, error) {
	s := &Simulator{
		design:    d,
		netIndex:  make(map[*netlist.Net]int),
		inputs:    make(map[string]int),
		clockNets: make(map[int]bool),
	}
	for i, n := range d.Nets() {
		s.netIndex[n] = i
		s.netNames = append(s.netNames, n.Name)
	}
	s.values = make([]bool, len(s.netNames))
	s.prev = make([]bool, len(s.netNames))
	s.toggles = make([]int64, len(s.netNames))

	for _, p := range d.Ports() {
		if p.Dir != netlist.In {
			continue
		}
		idx, ok := s.netIndex[p.Net]
		if !ok {
			return nil, fmt.Errorf("logicsim: port %q net not indexed", p.Name)
		}
		if isClockNet(p.Net) {
			s.clockNets[idx] = true
			continue
		}
		s.inputs[p.Name] = idx
	}

	var combo []gate
	for _, inst := range d.Instances() {
		m := inst.Master
		switch {
		case m.Filler:
			continue
		case m.Sequential:
			dNet := inst.Conn("D")
			outNet := inst.Conn(m.OutputPin())
			if dNet == nil || outNet == nil {
				return nil, fmt.Errorf("logicsim: flip-flop %q missing D or output connection", inst.Name)
			}
			s.dffs = append(s.dffs, dff{inst: inst, dIdx: s.netIndex[dNet], outIdx: s.netIndex[outNet]})
		default:
			g := gate{inst: inst, fn: m.Function}
			for _, pin := range m.Inputs() {
				net := inst.Conn(pin)
				if net == nil {
					return nil, fmt.Errorf("logicsim: pin %s.%s unconnected", inst.Name, pin)
				}
				g.inIdx = append(g.inIdx, s.netIndex[net])
			}
			outNet := inst.Conn(m.OutputPin())
			if outNet == nil {
				return nil, fmt.Errorf("logicsim: gate %q output unconnected", inst.Name)
			}
			g.outIdx = s.netIndex[outNet]
			combo = append(combo, g)
		}
	}

	ordered, err := topoSort(combo, s)
	if err != nil {
		return nil, err
	}
	s.gates = ordered
	return s, nil
}

// isClockNet reports whether the net looks like a clock: it is named "clk"
// or "clock", or every instance load is a CK pin.
func isClockNet(n *netlist.Net) bool {
	if n.Name == "clk" || n.Name == "clock" || n.Name == "CK" {
		return true
	}
	if len(n.Loads) == 0 {
		return false
	}
	for _, l := range n.Loads {
		if l.Inst == nil || l.Pin != "CK" {
			return false
		}
	}
	return true
}

// topoSort orders the combinational gates so that every gate appears after
// all gates driving its inputs. Sources are primary inputs, flip-flop
// outputs and constant (tie) cells.
func topoSort(gates []gate, s *Simulator) ([]gate, error) {
	// Map from net index to the combinational gate driving it (if any).
	driverOf := make(map[int]int) // net index -> gate position in gates
	for gi, g := range gates {
		driverOf[g.outIdx] = gi
	}
	indeg := make([]int, len(gates))
	dependents := make([][]int, len(gates))
	for gi, g := range gates {
		for _, in := range g.inIdx {
			if di, ok := driverOf[in]; ok {
				indeg[gi]++
				dependents[di] = append(dependents[di], gi)
			}
		}
	}
	queue := make([]int, 0, len(gates))
	for gi, deg := range indeg {
		if deg == 0 {
			queue = append(queue, gi)
		}
	}
	ordered := make([]gate, 0, len(gates))
	for len(queue) > 0 {
		gi := queue[0]
		queue = queue[1:]
		ordered = append(ordered, gates[gi])
		for _, dep := range dependents[gi] {
			indeg[dep]--
			if indeg[dep] == 0 {
				queue = append(queue, dep)
			}
		}
	}
	if len(ordered) != len(gates) {
		return nil, fmt.Errorf("logicsim: combinational loop detected (%d of %d gates unorderable)", len(gates)-len(ordered), len(gates))
	}
	return ordered, nil
}

// SetInput sets the value of a primary input for the current cycle.
func (s *Simulator) SetInput(port string, v bool) error {
	idx, ok := s.inputs[port]
	if !ok {
		return fmt.Errorf("logicsim: unknown primary input %q", port)
	}
	s.values[idx] = v
	return nil
}

// Inputs returns the names of the drivable primary inputs (clock excluded)
// in sorted order, so callers that drive vectors positionally are
// reproducible.
func (s *Simulator) Inputs() []string {
	out := make([]string, 0, len(s.inputs))
	for name := range s.inputs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Eval propagates the current input and register values through the
// combinational logic.
func (s *Simulator) Eval() {
	// Drive flip-flop outputs from their stored state.
	for _, f := range s.dffs {
		s.values[f.outIdx] = f.state
	}
	buf := make([]bool, 0, 4)
	for _, g := range s.gates {
		buf = buf[:0]
		for _, idx := range g.inIdx {
			buf = append(buf, s.values[idx])
		}
		s.values[g.outIdx] = g.fn.Eval(buf)
	}
}

// Step advances one clock cycle: combinational settle, register capture,
// settle again with the new register values, then toggle accounting against
// the previous cycle's settled state.
func (s *Simulator) Step() {
	s.Eval()
	// Capture D inputs.
	for i := range s.dffs {
		s.dffs[i].state = s.values[s.dffs[i].dIdx]
	}
	// Propagate the new register outputs.
	s.Eval()
	// Toggle accounting.
	if s.cycles > 0 {
		for i := range s.values {
			if s.values[i] != s.prev[i] {
				s.toggles[i]++
			}
		}
	}
	copy(s.prev, s.values)
	s.cycles++
}

// NetValue returns the current settled value of the named net.
func (s *Simulator) NetValue(name string) (bool, error) {
	n := s.design.Net(name)
	if n == nil {
		return false, fmt.Errorf("logicsim: unknown net %q", name)
	}
	return s.values[s.netIndex[n]], nil
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
		if s.values[s.netIndex[n]] && i < 64 {
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
		if _, ok := s.inputs[name]; !ok {
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

package netlist

import (
	"fmt"
	"slices"

	"thermplace/internal/celllib"
)

// Graph is a design's clocked structure, resolved once, with every net an
// ordinal (Net.Ord). Logic simulation and timing each build one with
// Levelize when they are constructed.
type Graph struct {
	// Gates holds the combinational non-filler instances, each after the
	// gates driving its inputs. Out[i] is gate i's output net, and
	// In[InStart[i]:InStart[i+1]] its input nets in Master.Inputs() order.
	Gates            []*Instance
	Out, InStart, In []int32
	// Flops holds the flip-flops in design order, and FlopD and FlopQ their
	// data-pin (Master.DataPin) and output nets.
	Flops        []*Instance
	FlopD, FlopQ []int32
	// Clocks holds every flip-flop's clock-pin net (Master.ClockPin) and,
	// repeatedly, the input net of a BUF or INV driving a clock net.
	Clocks []int32
}

// GraphError reports a design Levelize cannot order or clock: an unconnected
// pin, a combinational loop, or a clock not driven from an input port
// through BUF and INV cells. Inst names the gate or flip-flop at fault.
type GraphError struct{ Inst, Reason string }

func (e *GraphError) Error() string { return fmt.Sprintf("netlist: instance %q %s", e.Inst, e.Reason) }

// Levelize builds the design's Graph, ordering the gates by Kahn's
// algorithm with its queue seeded in design order. Gated and derived
// clocks are not modeled: a clock chain through any other cell, or from an
// undriven net, is a GraphError naming the flip-flop and the break.
func (d *Design) Levelize() (*Graph, error) {
	g := &Graph{}
	conn := func(inst *Instance, pin string) (int32, error) {
		if n := inst.conns[pin]; n != nil {
			return int32(n.ord), nil
		}
		return 0, &GraphError{inst.Name, fmt.Sprintf("has pin %q unconnected", pin)}
	}
	// The gates in design order, which Kahn's algorithm permutes into g.
	// AddMaster bounds a gate's inputs at three, so no append grows these.
	n := len(d.instOrder)
	gates, out := make([]*Instance, 0, n), make([]int32, 0, n)
	start, in := make([]int32, 1, n+1), make([]int32, 0, 3*n)
	var o int32
	var err error
	for _, inst := range d.instOrder {
		switch m := inst.Master; {
		case m.Filler:
		case m.Sequential:
			var ff [3]int32 // clock, data and output nets
			for k, pin := range [3]string{m.ClockPin(), m.DataPin(), m.OutputPin()} {
				if ff[k], err = conn(inst, pin); err != nil {
					return nil, err
				}
			}
			g.Flops, g.FlopD, g.FlopQ = append(g.Flops, inst), append(g.FlopD, ff[1]), append(g.FlopQ, ff[2])
		default:
			for _, pin := range m.Inputs() {
				if o, err = conn(inst, pin); err != nil {
					return nil, err
				}
				in = append(in, o)
			}
			if o, err = conn(inst, m.OutputPin()); err != nil {
				return nil, err
			}
			gates, out, start = append(gates, inst), append(out, o), append(start, int32(len(in)))
		}
	}

	// deps lists the gates reading each gate's output, a CSR over depStart.
	nGates := len(gates)
	driver := make([]int32, d.NumNets()) // net -> driving gate + 1, 0 if none
	for gi, x := range out {
		driver[x] = int32(gi) + 1
	}
	indeg, depStart := make([]int32, nGates), make([]int32, nGates+1)
	queue := make([]int32, 0, nGates)
	for gi := range gates {
		for _, x := range in[start[gi]:start[gi+1]] {
			if di := driver[x]; di > 0 {
				indeg[gi]++
				depStart[di]++
			}
		}
		if indeg[gi] == 0 {
			queue = append(queue, int32(gi))
		}
	}
	for i := 1; i <= nGates; i++ {
		depStart[i] += depStart[i-1]
	}
	deps, fill := make([]int32, depStart[nGates]), slices.Clone(depStart[:nGates])
	for gi := range gates {
		for _, x := range in[start[gi]:start[gi+1]] {
			if di := driver[x]; di > 0 {
				deps[fill[di-1]] = int32(gi)
				fill[di-1]++
			}
		}
	}
	g.Gates, g.Out = make([]*Instance, 0, nGates), make([]int32, 0, nGates)
	g.InStart, g.In = make([]int32, 1, nGates+1), make([]int32, 0, len(in))
	for head := 0; head < len(queue); head++ {
		gi := queue[head]
		for _, dep := range deps[depStart[gi]:depStart[gi+1]] {
			if indeg[dep]--; indeg[dep] == 0 {
				queue = append(queue, dep)
			}
		}
		g.Gates, g.Out = append(g.Gates, gates[gi]), append(g.Out, out[gi])
		g.In = append(g.In, in[start[gi]:start[gi+1]]...)
		g.InStart = append(g.InStart, int32(len(g.In)))
	}
	if len(queue) != nGates {
		stuck := gates[slices.IndexFunc(indeg, func(deg int32) bool { return deg > 0 })]
		return nil, &GraphError{stuck.Name, fmt.Sprintf("is on a combinational loop (%d of %d gates cannot be ordered)", nGates-len(queue), nGates)}
	}

	// Walk back from every clock pin through BUF and INV drivers to an
	// input port. The loop check above ends every walk, and a net already
	// marked lies on a chain that reached a port.
	clock := make([]bool, d.NumNets())
	for _, ff := range g.Flops {
		for net := ff.conns[ff.Master.ClockPin()]; !clock[net.ord]; {
			clock[net.ord] = true
			g.Clocks = append(g.Clocks, int32(net.ord))
			drv := net.Driver.Inst
			if net.Driver.Port != nil {
				break
			}
			if drv != nil && !drv.Master.Filler && (drv.Master.Function == celllib.FuncBuf || drv.Master.Function == celllib.FuncInv) {
				net = drv.conns[drv.Master.Inputs()[0]]
				continue
			}
			what := fmt.Sprintf("undriven net %q", net.Name)
			if drv != nil {
				what = fmt.Sprintf("%q (%s)", drv.Name, drv.Master.Name)
			}
			return nil, &GraphError{ff.Name, "is clocked through " + what +
				", not from an input port through BUF and INV cells: gated and derived clocks are not modeled"}
		}
	}
	return g, nil
}

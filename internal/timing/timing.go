// Package timing is a small static timing analyzer for placed gate-level
// designs. It supports the paper's two timing-related claims:
//
//   - the post-placement transforms cause only a small ("around 2%") increase
//     of the critical-path delay, because cell movements are local;
//   - temperature affects delay (the paper's motivation): MOS drive strength
//     drops about 4% per 10 degrees C and interconnect delay grows about 5%
//     per 10 degrees C, so the analyzer can derate each cell and wire with
//     the local temperature from a thermal map.
//
// The delay model is the usual linear one: cell delay = intrinsic +
// drive-resistance * load, wire delay from a lumped Elmore term computed on
// the placed net's half-perimeter wirelength.
//
// The analyzer caches everything that depends only on the netlist — the
// levelized graph it shares with logic simulation (netlist.Design.Levelize)
// and the endpoints, each flip-flop's data net (celllib.Master.DataPin) and
// the primary outputs — in an Analyzer, so a sweep re-analyzing many
// placements of one design pays the graph construction once. Each Analyze
// call then propagates arrival times through the whole graph; a report
// keeps only the summary and the critical path. The propagation is checked
// against an explicit enumeration of every launch-to-endpoint path in
// TestAnalyzeMatchesPathEnumeration.
package timing

import (
	"fmt"
	"sort"

	"thermplace/internal/geom"
	"thermplace/internal/netlist"
	"thermplace/internal/place"
)

// Options configures a timing analysis. The values are used verbatim: a zero
// derate disables that derating term and NominalC 0 derates relative to 0
// degrees C. DefaultOptions supplies the paper's characterization point;
// build on it to get the 4%/10C and 5%/10C derates.
type Options struct {
	// TemperatureMap, when non-nil, derates every cell and wire with the
	// temperature of its location (degrees C, absolute). The map must cover
	// the core.
	TemperatureMap *geom.Grid
	// NominalC is the temperature at which the library delays are
	// characterized.
	NominalC float64
	// CellDeratePer10C is the fractional cell-delay increase per 10 C above
	// nominal. Zero disables cell derating.
	CellDeratePer10C float64
	// WireDeratePer10C is the fractional wire-delay increase per 10 C above
	// nominal. Zero disables wire derating.
	WireDeratePer10C float64
	// ClockPeriodPs, when positive, is used to report slack.
	ClockPeriodPs float64
}

// DefaultOptions returns the paper's characterization point — delays
// characterized at 25 C, 4%/10C cell and 5%/10C wire derates (inert until a
// TemperatureMap is set) — at a 1 GHz clock (1000 ps period).
func DefaultOptions() Options {
	return Options{
		NominalC:         25,
		CellDeratePer10C: 0.04,
		WireDeratePer10C: 0.05,
		ClockPeriodPs:    1000,
	}
}

// PathStep is one hop of a timing path.
type PathStep struct {
	// Inst is the driving cell of this step (nil for a primary input).
	Inst *netlist.Instance
	// Net is the net the step drives.
	Net *netlist.Net
	// DelayPs is the step's contribution (cell + wire) in picoseconds.
	DelayPs float64
	// TimePs is the arrival time at the net: the path's cumulative delay up
	// to and including this step, in picoseconds.
	TimePs float64
}

// Report is the result of a timing analysis.
type Report struct {
	// CriticalPathPs is the worst arrival time at any endpoint (flip-flop
	// data input or primary output) in picoseconds.
	CriticalPathPs float64
	// CriticalPath lists the steps of the worst path, start to end.
	CriticalPath []PathStep
	// SlackPs is ClockPeriodPs - CriticalPathPs when a period was given.
	SlackPs float64
	// MaxFrequencyGHz is 1000 / CriticalPathPs.
	MaxFrequencyGHz float64
	// Endpoints is the number of distinct timing endpoint nets analyzed.
	Endpoints int
}

// MemoryBytes coarsely estimates the retained size of the report: its
// critical path, the only per-step payload it keeps. It feeds
// flow.Analysis.MemoryBytes, the accounting unit of the query server's
// result cache.
func (r *Report) MemoryBytes() int64 {
	return int64(len(r.CriticalPath)) * 48
}

// Overhead returns the fractional critical-path increase of after relative
// to before; negative values mean the path got faster.
func Overhead(before, after *Report) float64 {
	if before == nil || after == nil || before.CriticalPathPs <= 0 {
		return 0
	}
	return (after.CriticalPathPs - before.CriticalPathPs) / before.CriticalPathPs
}

// node is the per-gate record used during levelized arrival propagation;
// the inNets of all nodes share one backing slice.
type node struct {
	inst   *netlist.Instance
	inNets []*netlist.Net
	outNet *netlist.Net
}

// Analyzer holds the placement-independent timing graph of one design: the
// combinational nodes in a fixed topological order, the sequential launch
// points and the deduplicated endpoint nets. It is immutable after
// construction and safe for concurrent use; building it once and calling
// Analyze per placement skips the levelization that dominates small
// analyses.
type Analyzer struct {
	d       *netlist.Design
	nodes   []node // topological order
	seqs    []*netlist.Instance
	endNets []*netlist.Net // deduped: FF data-input nets, then primary outputs
	numNets int
}

// NewAnalyzer builds the timing graph from the design's levelized graph
// (netlist.Design.Levelize).
func NewAnalyzer(d *netlist.Design) (*Analyzer, error) {
	g, err := d.Levelize()
	if err != nil {
		return nil, fmt.Errorf("timing: %w", err)
	}
	nets := d.Nets()
	a := &Analyzer{d: d, nodes: make([]node, len(g.Gates)), seqs: g.Flops, numNets: len(nets)}
	in := make([]*netlist.Net, len(g.In))
	for k, o := range g.In {
		in[k] = nets[o]
	}
	for i, inst := range g.Gates {
		lo, hi := g.InStart[i], g.InStart[i+1]
		a.nodes[i] = node{inst: inst, inNets: in[lo:hi:hi], outNet: nets[g.Out[i]]}
	}

	// Endpoint nets, deduplicated: a flip-flop's data net may be an output.
	endSeen := make([]bool, a.numNets)
	addEnd := func(net *netlist.Net) {
		if net == nil || endSeen[net.Ord()] {
			return
		}
		endSeen[net.Ord()] = true
		a.endNets = append(a.endNets, net)
	}
	for _, dn := range g.FlopD {
		addEnd(nets[dn])
	}
	for _, port := range d.Ports() {
		if port.Dir == netlist.Out {
			addEnd(port.Net)
		}
	}
	return a, nil
}

// Analyze runs a full-chip static timing analysis on the placed design.
// The placement may be nil, in which case wire delay and wire load are
// ignored (useful to isolate the pure gate-delay component).
func Analyze(d *netlist.Design, p *place.Placement, opts Options) (*Report, error) {
	a, err := NewAnalyzer(d)
	if err != nil {
		return nil, err
	}
	return a.Analyze(p, opts), nil
}

// Analyze propagates arrival times through the cached graph for one
// placement. It is safe for concurrent use.
func (a *Analyzer) Analyze(p *place.Placement, opts Options) *Report {
	arrival := make([]float64, a.numNets)
	reached := make([]bool, a.numNets)
	steps := make([]PathStep, a.numNets)

	// Launch points: primary inputs at t=0 and flip-flop outputs at their
	// clock-to-output delay.
	for _, port := range a.d.Ports() {
		if port.Dir == netlist.In && port.Net != nil {
			reached[port.Net.Ord()] = true
		}
	}
	for _, ff := range a.seqs {
		out := ff.Conn(ff.Master.OutputPin())
		o := out.Ord()
		t := cellDelay(a.d, p, ff, out, opts) + wireDelay(a.d, p, out, opts)
		if t > arrival[o] {
			arrival[o] = t
			reached[o] = true
			steps[o] = PathStep{Inst: ff, Net: out, DelayPs: t, TimePs: t}
		}
	}

	// Propagate arrivals in topological order.
	for i := range a.nodes {
		n := &a.nodes[i]
		worst := 0.0
		for _, in := range n.inNets {
			if t := arrival[in.Ord()]; t >= worst {
				worst = t
			}
		}
		delay := cellDelay(a.d, p, n.inst, n.outNet, opts) + wireDelay(a.d, p, n.outNet, opts)
		t := worst + delay
		o := n.outNet.Ord()
		if t > arrival[o] {
			arrival[o] = t
			reached[o] = true
			steps[o] = PathStep{Inst: n.inst, Net: n.outNet, DelayPs: delay, TimePs: t}
		}
	}
	return a.finish(opts, arrival, reached, steps)
}

// finish derives the report from a propagated arrival state: the worst
// endpoint, the path leading to it and the derived metrics. The per-net
// state is not retained.
func (a *Analyzer) finish(opts Options, arrival []float64, reached []bool, steps []PathStep) *Report {
	rep := &Report{}
	var worstNet *netlist.Net
	for _, net := range a.endNets {
		rep.Endpoints++
		if t := arrival[net.Ord()]; t >= rep.CriticalPathPs {
			rep.CriticalPathPs = t
			worstNet = net
		}
	}
	if rep.Endpoints == 0 {
		// Purely combinational fan-out-free design: fall back to the worst
		// arrival anywhere, scanning nets in creation order so the reported
		// worst net is deterministic.
		for _, net := range a.d.Nets() {
			if !reached[net.Ord()] {
				continue
			}
			rep.Endpoints++
			if t := arrival[net.Ord()]; t >= rep.CriticalPathPs {
				rep.CriticalPathPs = t
				worstNet = net
			}
		}
	}
	rep.CriticalPath = a.tracePath(arrival, steps, worstNet)
	if rep.CriticalPathPs > 0 {
		rep.MaxFrequencyGHz = 1000 / rep.CriticalPathPs
	}
	if opts.ClockPeriodPs > 0 {
		rep.SlackPs = opts.ClockPeriodPs - rep.CriticalPathPs
	}
	return rep
}

// tracePath rebuilds the critical path from the per-net driver steps.
func (a *Analyzer) tracePath(arrival []float64, steps []PathStep, end *netlist.Net) []PathStep {
	var rev []PathStep
	seen := make([]bool, a.numNets)
	for net := end; net != nil && !seen[net.Ord()]; {
		seen[net.Ord()] = true
		step := steps[net.Ord()]
		if step.Net == nil {
			break
		}
		rev = append(rev, step)
		// Move to the worst input of the driver.
		if step.Inst == nil || step.Inst.Master.Sequential {
			break
		}
		var worst *netlist.Net
		worstT := -1.0
		for _, pin := range step.Inst.Master.Inputs() {
			in := step.Inst.Conn(pin)
			if t := arrival[in.Ord()]; t > worstT {
				worstT = t
				worst = in
			}
		}
		net = worst
	}
	// Reverse into launch-to-capture order.
	sort.SliceStable(rev, func(i, j int) bool { return rev[i].TimePs < rev[j].TimePs })
	return rev
}

// derate returns the multiplicative delay derating factor for a point.
func derate(opts Options, per10C float64, at geom.Point) float64 {
	if opts.TemperatureMap == nil {
		return 1
	}
	ix, iy := opts.TemperatureMap.CellOf(at)
	t := opts.TemperatureMap.At(ix, iy)
	d := 1 + per10C*(t-opts.NominalC)/10
	if d < 0.5 {
		d = 0.5
	}
	return d
}

// cellDelay returns the delay of a gate driving its output net in ps.
func cellDelay(d *netlist.Design, p *place.Placement, inst *netlist.Instance, out *netlist.Net, opts Options) float64 {
	lib := d.Lib
	load := 0.0 // fF
	for _, l := range out.Loads {
		if l.Inst != nil {
			load += l.Inst.Master.PinCap(l.Pin)
		}
	}
	if p != nil {
		load += p.HPWL(out) * lib.WireCapPerUm
	}
	// kOhm * fF = ps.
	delay := inst.Master.Intrinsic + inst.Master.DriveRes*load
	if p != nil {
		delay *= derate(opts, opts.CellDeratePer10C, p.Center(inst))
	}
	return delay
}

// wireDelay returns the lumped Elmore wire delay of the net in ps.
func wireDelay(d *netlist.Design, p *place.Placement, net *netlist.Net, opts Options) float64 {
	if p == nil {
		return 0
	}
	lib := d.Lib
	length := p.HPWL(net)
	rw := length * lib.WireResPerUm // ohm
	cw := length * lib.WireCapPerUm // fF
	pinCap := 0.0
	for _, l := range net.Loads {
		if l.Inst != nil {
			pinCap += l.Inst.Master.PinCap(l.Pin)
		}
	}
	// ohm * fF = 1e-3 ps.
	delay := (0.5*rw*cw + rw*pinCap) * 1e-3
	bbox := p.NetBBox(net)
	return delay * derate(opts, opts.WireDeratePer10C, bbox.Center())
}

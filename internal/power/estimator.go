package power

import (
	"fmt"

	"thermplace/internal/logicsim"
	"thermplace/internal/netlist"
	"thermplace/internal/place"
)

// Estimator precomputes every placement-independent part of the power model
// for one (design, activity, clock) binding: the internal/clock/leakage
// breakdown terms, the per-instance output net, its toggle rate, and the
// summed fanout pin capacitance. A placement then only contributes the
// wire capacitance term, so estimating the power of one more placement —
// or re-estimating just the instances a place.Delta touched — is a pass
// over cached floats plus one (cached) net-bounding-box query per output
// net, with no netlist or activity traversal.
//
// The per-instance arithmetic mirrors the historical single-pass Estimate
// expression for expression (same operand order, same accumulation order),
// so an Estimator-built report is bit-identical to one computed from
// scratch; that equivalence is what lets the incremental analysis pipeline
// claim bit-identical sweep results.
//
// An Estimator is immutable after construction and safe for concurrent
// Report/Update calls on distinct placements.
type Estimator struct {
	design  *netlist.Design
	clockHz float64
	vdd2    float64
	wireCap float64 // per um, femtofarads

	insts []*netlist.Instance // non-filler instances in design order

	// Per instance ordinal:
	static    []Breakdown    // Internal, Clock, Leakage; Load left zero
	outNet    []*netlist.Net // nil when the master has no connected output
	alpha     []float64      // output-net toggle rate
	pinCapSum []float64      // fanout pin capacitance in fF, summed in load order
}

// NewEstimator builds the placement-independent power model. The activity
// must have been computed for d: it is indexed by d's net ordinals.
func NewEstimator(d *netlist.Design, act *logicsim.Activity, clockHz float64) *Estimator {
	if len(act.Rates) != d.NumNets() {
		panic(fmt.Sprintf("power: activity covers %d nets, design %s has %d", len(act.Rates), d.Name, d.NumNets()))
	}
	lib := d.Lib
	n := d.NumInstances()
	e := &Estimator{
		design:    d,
		clockHz:   clockHz,
		vdd2:      lib.Vdd * lib.Vdd,
		wireCap:   lib.WireCapPerUm,
		static:    make([]Breakdown, n),
		outNet:    make([]*netlist.Net, n),
		alpha:     make([]float64, n),
		pinCapSum: make([]float64, n),
	}
	for _, inst := range d.Instances() {
		if inst.IsFiller() {
			continue
		}
		ord := inst.Ord()
		m := inst.Master
		var b Breakdown
		b.Leakage = m.Leakage * nano

		if outPin := m.OutputPin(); outPin != "" {
			if outNet := inst.Conn(outPin); outNet != nil {
				alpha := act.For(outNet)
				// Fanout pin capacitance, summed in net load order — the
				// same order (and so the same float) as a from-scratch
				// estimate's accumulation.
				loadCap := 0.0
				for _, l := range outNet.Loads {
					if l.Inst != nil {
						loadCap += l.Inst.Master.PinCap(l.Pin)
					}
				}
				b.Internal = m.SwitchEnergy * femto * alpha * clockHz
				e.outNet[ord] = outNet
				e.alpha[ord] = alpha
				e.pinCapSum[ord] = loadCap
			}
		}
		if m.Sequential {
			// The clock pin toggles twice per cycle regardless of data
			// activity.
			ckCap := m.PinCap(m.ClockPin())
			b.Clock = 0.5 * ckCap * femto * e.vdd2 * 2 * clockHz
		}
		e.static[ord] = b
		e.insts = append(e.insts, inst)
	}
	return e
}

// loadPower evaluates the wirelength-dependent switching-load term for one
// instance on the given placement, with exactly the historical Estimate
// expression: loadCap accumulates pin caps first (precomputed, same order)
// and then the wire capacitance from the placed net's HPWL.
func (e *Estimator) loadPower(ord int, p *place.Placement) float64 {
	loadCap := e.pinCapSum[ord]
	if p != nil {
		loadCap += p.HPWL(e.outNet[ord]) * e.wireCap
	}
	return 0.5 * loadCap * femto * e.vdd2 * e.alpha[ord] * e.clockHz
}

// Report estimates the power of the placement (nil for a wire-load-free
// estimate), bit-identical to power.Estimate.
func (e *Estimator) Report(p *place.Placement) *Report {
	rep := &Report{
		ClockHz: e.clockHz,
		insts:   e.insts,
		perInst: make([]Breakdown, len(e.static)),
		est:     e,
	}
	for _, inst := range e.insts {
		ord := inst.Ord()
		b := e.static[ord]
		if e.outNet[ord] != nil {
			b.Load = e.loadPower(ord, p)
		}
		rep.perInst[ord] = b
	}
	return rep
}

// Update derives the report of placement p from r by re-evaluating only
// the instances whose output net the delta marks dirty — every other
// breakdown is carried over unchanged. Because a placement change can only
// alter the wire-capacitance term, and that term is re-evaluated with the
// full-report arithmetic, the result is bit-identical to a from-scratch
// Report(p). A nil or full delta falls back to the full pass.
//
// The delta must describe the difference between the placement r was
// computed for and p.
func (r *Report) Update(p *place.Placement, delta *place.Delta) *Report {
	e := r.est // always set: every Report is built by an Estimator
	if delta == nil || delta.IsFull() {
		return e.Report(p)
	}
	out := &Report{
		ClockHz: r.ClockHz,
		insts:   r.insts,
		perInst: append([]Breakdown(nil), r.perInst...),
		est:     e,
	}
	nets := e.design.Nets()
	for _, netOrd := range delta.DirtyNets() {
		// The only breakdown a net's wirelength feeds is its driver's
		// switching-load term — and a moved cell marks all its nets dirty,
		// so every affected driver is reached through its own output net.
		drv := nets[netOrd].Driver.Inst
		if drv == nil {
			continue
		}
		ord := drv.Ord()
		if e.outNet[ord] != nets[netOrd] {
			continue
		}
		out.perInst[ord].Load = e.loadPower(ord, p)
	}
	return out
}

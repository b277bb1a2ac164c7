// Package power estimates per-cell power consumption from annotated
// switching activities and builds the power-density maps consumed by the
// thermal simulator. It plays the role of Synopsys Power Compiler in the
// paper's flow.
//
// The model is the standard cell-based one:
//
//	P_cell = P_internal + P_load + P_leak
//	P_internal = E_switch * alpha_out * f
//	P_load     = 1/2 * C_load * Vdd^2 * alpha_out * f
//	P_clockpin = 1/2 * C_ck * Vdd^2 * 2 * f            (sequential cells)
//	P_leak     = constant per master
//
// where alpha_out is the output-net toggle rate (transitions per cycle),
// C_load is the sum of fanout pin capacitances plus estimated wire
// capacitance from the placed net's half-perimeter wirelength, and f is the
// clock frequency. Filler (dummy) cells consume exactly zero power.
package power

import (
	"thermplace/internal/geom"
	"thermplace/internal/logicsim"
	"thermplace/internal/netlist"
	"thermplace/internal/place"
)

// Unit conversion constants.
const (
	femto = 1e-15
	nano  = 1e-9
)

// Breakdown is the power of one instance split by mechanism, in watts.
type Breakdown struct {
	Internal float64
	Load     float64
	Clock    float64
	Leakage  float64
}

// Total returns the summed power of the breakdown in watts.
func (b Breakdown) Total() float64 { return b.Internal + b.Load + b.Clock + b.Leakage }

// Report holds the power estimate of a whole design for one placement.
// Per-instance breakdowns live in a dense ordinal-indexed slice, which is
// what makes deriving an updated report from a placement delta
// (Report.Update) a slice copy plus a handful of re-evaluated entries
// rather than a map rebuild.
type Report struct {
	// ClockHz is the clock frequency the estimate was computed for.
	ClockHz float64
	// insts lists the estimated instances in design order. Every
	// accumulation over the report iterates this slice: float addition is
	// order sensitive, and an unstable order would make totals and power
	// maps differ bit-wise between runs (which in turn would break the
	// bit-identical concurrent sweep).
	insts []*netlist.Instance
	// perInst holds each instance's breakdown, indexed by instance ordinal
	// (zero for fillers and unplaced ordinals).
	perInst []Breakdown
	// est is the estimator that produced the report; Update re-evaluates
	// dirty entries through it.
	est *Estimator
}

// Instances returns the estimated instances in deterministic design order.
func (r *Report) Instances() []*netlist.Instance { return r.insts }

// MemoryBytes estimates the retained size of the report's own storage: the
// instance list (pointers into the shared design) and the dense per-ordinal
// breakdowns. It is part of the memory accounting of a resident cached
// analysis.
func (r *Report) MemoryBytes() int64 {
	const ptr = 8
	return ptr*int64(len(r.insts)) + int64(len(r.perInst))*4*8
}

// Breakdown returns the power breakdown of one instance.
func (r *Report) Breakdown(inst *netlist.Instance) Breakdown {
	if ord := inst.Ord(); ord < len(r.perInst) {
		return r.perInst[ord]
	}
	return Breakdown{}
}

// Total returns the total design power in watts.
func (r *Report) Total() float64 {
	t := 0.0
	for _, inst := range r.insts {
		t += r.perInst[inst.Ord()].Total()
	}
	return t
}

// TotalBreakdown returns the design-level power split by mechanism.
func (r *Report) TotalBreakdown() Breakdown {
	var out Breakdown
	for _, inst := range r.insts {
		b := r.perInst[inst.Ord()]
		out.Internal += b.Internal
		out.Load += b.Load
		out.Clock += b.Clock
		out.Leakage += b.Leakage
	}
	return out
}

// InstancePower returns the total power of one instance in watts.
func (r *Report) InstancePower(inst *netlist.Instance) float64 {
	return r.Breakdown(inst).Total()
}

// Estimate computes the power report for a placed design: a one-shot
// Estimator build plus its placement pass. Callers that estimate several
// placements of the same design under the same activity (the sweep) hold
// an Estimator instead and amortize the netlist traversal.
//
// The placement is used for the wire-capacitance component of the switching
// load; pass a nil placement to get a wire-load-free estimate (useful before
// placement exists).
func Estimate(d *netlist.Design, p *place.Placement, act *logicsim.Activity, clockHz float64) *Report {
	return NewEstimator(d, act, clockHz).Report(p)
}

// Map bins the per-instance power onto an nx-by-ny grid over the placement's
// core area, spreading each cell's power over the grid cells its footprint
// overlaps. The result is in watts per grid cell and is the "power profile"
// of the paper's Figure 5 (left).
func Map(rep *Report, p *place.Placement, nx, ny int) *geom.Grid {
	g := geom.NewGrid(nx, ny, p.FP.Core)
	// Iterate in design order: the spread accumulates into shared grid
	// cells, and float addition order must be reproducible for the sweep
	// results to be bit-identical across runs.
	for _, inst := range rep.insts {
		r, ok := p.CellRect(inst)
		if !ok {
			continue
		}
		g.SpreadRect(r, rep.perInst[inst.Ord()].Total())
	}
	return g
}

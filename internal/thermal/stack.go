// Package thermal implements the on-chip thermal model of the paper: the
// die and its package are meshed into a three-dimensional grid of thermal
// cells (40 x 40 in x/y and 9 layers in z by default), each cell is replaced
// by the equivalent resistive model of Fourier heat conduction, boundary
// cells are tied to the ambient temperature through package/heat-sink
// resistances, the per-cell power consumption is injected as a current
// source, and the resulting resistive network is solved at the steady state
// (the thermal capacitances drop out) by the SPICE-substitute in package
// spice. Node voltages are node temperatures.
package thermal

// Layer is one z-slice of the thermal stack.
type Layer struct {
	// Name describes the layer ("bulk-silicon", "metal-stack", ...).
	Name string
	// Thickness is the layer thickness in micrometres.
	Thickness float64
	// Conductivity is the thermal conductivity in W/(m*K).
	Conductivity float64
	// Power marks the layer into which the cell power map is injected
	// (the active/device layer). Exactly one layer must have Power set.
	Power bool
}

// Stack is the ordered list of layers from the bottom of the model (heat
// sink side) to the top (package mold side).
type Stack []Layer

// PowerLayer returns the index of the power-injection layer, or -1.
func (s Stack) PowerLayer() int {
	for i, l := range s {
		if l.Power {
			return i
		}
	}
	return -1
}

// DefaultStack returns the nine-layer stack used by the experiments. The
// layer count matches the paper (z discretized into 9 layers); the
// conductivities follow the usual on-chip values (silicon ~110 W/mK, the
// back-end-of-line metal/dielectric stack a few W/mK, mold compound below
// 1 W/mK), in the spirit of the Sato et al. data the paper adopts.
//
// The die of the synthetic benchmark is only a few hundred micrometres on a
// side, so the effective vertical path to ambient (DefaultConfig's heat
// transfer coefficients) is chosen to give a lateral thermal spreading
// length of a few tens of micrometres. That keeps hotspots localized at the
// scale of the paper's thermal maps; see the design notes in README.md for
// the calibration note.
func DefaultStack() Stack {
	return Stack{
		{Name: "die-attach", Thickness: 5, Conductivity: 2},
		{Name: "bulk-silicon-1", Thickness: 20, Conductivity: 110},
		{Name: "bulk-silicon-2", Thickness: 20, Conductivity: 110},
		{Name: "bulk-silicon-3", Thickness: 20, Conductivity: 110},
		{Name: "active", Thickness: 5, Conductivity: 80, Power: true},
		{Name: "metal-1-4", Thickness: 6, Conductivity: 2.5},
		{Name: "metal-5-7", Thickness: 6, Conductivity: 2.5},
		{Name: "passivation", Thickness: 8, Conductivity: 1.2},
		{Name: "mold", Thickness: 80, Conductivity: 0.8},
	}
}

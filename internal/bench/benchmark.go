package bench

import (
	"fmt"

	"thermplace/internal/celllib"
	"thermplace/internal/netlist"
)

// Config describes a synthetic benchmark to generate.
type Config struct {
	// Name is the top-level module name.
	Name string
	// Units lists the arithmetic units to instantiate.
	Units []UnitSpec
}

// DefaultConfig returns the paper's benchmark configuration: nine arithmetic
// units of various sizes totalling roughly 12,000 standard cells. The clock
// is the flow's (flow.Config.ClockHz, 1 GHz by default, as in the paper).
func DefaultConfig() Config {
	return Config{
		Name: "synth9",
		Units: []UnitSpec{
			{Name: "mult32", Kind: KindMultiplier, Width: 32},
			{Name: "mult28", Kind: KindMultiplier, Width: 28},
			{Name: "mult24", Kind: KindMultiplier, Width: 24},
			{Name: "mult20", Kind: KindMultiplier, Width: 20},
			{Name: "mult16a", Kind: KindMultiplier, Width: 16},
			{Name: "mult16b", Kind: KindMultiplier, Width: 16},
			{Name: "mac16", Kind: KindMAC, Width: 16},
			{Name: "alu32", Kind: KindALU, Width: 32},
			{Name: "csadd64", Kind: KindCarrySelectAdder, Width: 64},
		},
	}
}

// SmallConfig returns a reduced benchmark (a few hundred cells) useful for
// fast tests and the quickstart example.
func SmallConfig() Config {
	return Config{
		Name: "synth_small",
		Units: []UnitSpec{
			{Name: "mult8", Kind: KindMultiplier, Width: 8},
			{Name: "add16", Kind: KindRippleAdder, Width: 16},
			{Name: "alu8", Kind: KindALU, Width: 8},
			{Name: "cmp16", Kind: KindComparator, Width: 16},
		},
	}
}

// SmallScatteredWorkload is the paper's first test set reduced to
// SmallConfig's units, which lack the paper benchmark's multipliers and
// MAC: the multiplier and the ALU run hot.
func SmallScatteredWorkload() Workload {
	return Workload{Name: "scattered-small(reduced)",
		Activity: map[string]float64{"mult8": 0.55, "alu8": 0.5}, Default: 0.04}
}

// SmallConcentratedWorkload is the paper's second test set reduced to
// SmallConfig's units: the multiplier alone runs hot.
func SmallConcentratedWorkload() Workload {
	return Workload{Name: "concentrated(reduced)",
		Activity: map[string]float64{"mult8": 0.55}, Default: 0.04}
}

// Generate builds the benchmark design described by cfg using lib.
// The returned design has a single clock input named "clk" connected to all
// flip-flops and one set of primary inputs/outputs per unit, each tagged
// with its unit name.
func Generate(lib *celllib.Library, cfg Config) (*netlist.Design, error) {
	if len(cfg.Units) == 0 {
		return nil, fmt.Errorf("bench: configuration has no units")
	}
	d := netlist.NewDesign(cfg.Name, lib)
	clkPort, err := d.AddPort("clk", netlist.In)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	for _, u := range cfg.Units {
		if u.Width <= 0 {
			return nil, fmt.Errorf("bench: unit %q has invalid width %d", u.Name, u.Width)
		}
		if seen[u.Name] {
			return nil, fmt.Errorf("bench: duplicate unit name %q", u.Name)
		}
		seen[u.Name] = true
		buildUnit(d, u, clkPort.Net)
	}
	if errs := d.Check(); len(errs) != 0 {
		return nil, fmt.Errorf("bench: generated design fails checks: %w (and %d more)", errs[0], len(errs)-1)
	}
	return d, nil
}

// Workload assigns a primary-input switching activity to every unit; this is
// how the paper controls the size and position of hotspots ("we are able to
// control the size and position of hotspots using different workloads").
type Workload struct {
	// Name labels the workload in reports.
	Name string
	// Activity maps unit name to the per-cycle toggle probability of that
	// unit's primary inputs.
	Activity map[string]float64
	// Default is the activity applied to units not listed in Activity.
	Default float64
}

// ActivityFor returns the input toggle probability for the unit.
func (w Workload) ActivityFor(unit string) float64 {
	if a, ok := w.Activity[unit]; ok {
		return a
	}
	return w.Default
}

// ScatteredSmallHotspots is the paper's first test set: four small units run
// hot while the rest of the circuit stays quiet, producing four small
// scattered hotspots.
func ScatteredSmallHotspots() Workload {
	return Workload{
		Name: "scattered-small",
		Activity: map[string]float64{
			"mult16a": 0.55,
			"mult16b": 0.55,
			"mac16":   0.50,
			"mult20":  0.45,
		},
		Default: 0.04,
	}
}

// ConcentratedLargeHotspot is the paper's second test set: the single
// largest unit runs hot, producing one large concentrated hotspot.
func ConcentratedLargeHotspot() Workload {
	return Workload{
		Name: "concentrated-large",
		Activity: map[string]float64{
			"mult32": 0.55,
		},
		Default: 0.04,
	}
}

// UniformWorkload drives every unit with the same activity; useful as a
// control case and in tests.
func UniformWorkload(activity float64) Workload {
	return Workload{Name: "uniform", Default: activity}
}

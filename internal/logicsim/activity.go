package logicsim

import (
	"fmt"
	"math/rand"

	"thermplace/internal/netlist"
)

// Activity holds per-net switching activities extracted from a simulation
// run: the average number of transitions per clock cycle of every net.
// It is the hand-off between logic simulation and power estimation, and it
// is indexed by the net ordinals of the design it was computed for.
type Activity struct {
	// Rates holds each net's average transitions per cycle, indexed by
	// netlist.Net.Ord().
	Rates []float64
	// Cycles is the number of simulated cycles the averages are based on.
	Cycles int
}

// For returns the toggle rate of a net of the activity's design.
func (a *Activity) For(n *netlist.Net) float64 { return a.Rates[n.Ord()] }

// RunRandom simulates the design for the given number of cycles under
// random stimulus and returns the extracted switching activities. Each
// cycle draws one number in [0, 1) from a generator seeded with seed for
// every drivable primary input, in sorted port-name order, and toggles the
// input when the draw is below activityFor(port); activityFor is called
// once per input, and typically routes through a bench.Workload keyed on
// the unit prefix of the port name. Clock nets (netlist.Graph.Clocks), buffered
// ones included, report two transitions per cycle and draw no stimulus.
func RunRandom(d *netlist.Design, cycles int, seed int64, activityFor func(port string) float64) (*Activity, error) {
	if cycles <= 0 {
		return nil, fmt.Errorf("logicsim: cycle count must be positive, got %d", cycles)
	}
	sim, err := New(d)
	if err != nil {
		return nil, err
	}
	p := make([]float64, len(sim.inputs))
	for i, in := range sim.inputs {
		p[i] = activityFor(in.name)
	}
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < cycles; c++ {
		for i, in := range sim.inputs {
			if rng.Float64() < p[i] {
				sim.v[in.net] ^= 1
			}
		}
		sim.Step()
	}
	act := &Activity{Rates: make([]float64, len(sim.toggles)), Cycles: cycles}
	denom := float64(cycles - 1)
	if denom <= 0 {
		denom = 1
	}
	for i, t := range sim.toggles {
		act.Rates[i] = float64(t) / denom
	}
	for _, c := range sim.clocks {
		act.Rates[c] = 2.0
	}
	return act, nil
}

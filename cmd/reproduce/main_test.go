package main

import (
	"context"
	"testing"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/core"
	"thermplace/internal/flow"
)

// TestTimingHWIsTheSweepsHWPoint pins what -exp timing measures: on the
// small benchmark, the HW placement it times is the Fig6 sweep's HW point
// at the same overhead, cell for cell, so the reported HW timing overhead
// belongs to a placement the sweep actually produces.
func TestTimingHWIsTheSweepsHWPoint(t *testing.T) {
	lib := celllib.Default65nm()
	cfgBench := bench.SmallConfig()
	design, err := bench.Generate(lib, cfgBench)
	if err != nil {
		t.Fatal(err)
	}
	cfg := flow.DefaultConfig()
	cfg.ClockHz = cfgBench.ClockHz()
	f := flow.New(design, scatteredWorkload(true), cfg)

	ctx := context.Background()
	_, hw, err := sweepDefaultAndHW(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	if hw == nil {
		t.Fatal("the experiment found no tight hotspot to wrap")
	}
	res, err := core.SweepEfficiencyCtx(ctx, f, core.SweepOptions{
		Overheads:    []float64{timingOverhead},
		Strategies:   []core.Strategy{core.StrategyHW},
		KeepAnalyses: true,
		Workers:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("sweep measured %d HW points, want 1", len(res.Points))
	}
	want := res.Points[0].Placement
	if hw.FP.Core != want.FP.Core {
		t.Fatalf("core %v, sweep's HW core %v", hw.FP.Core, want.FP.Core)
	}
	for _, inst := range design.Instances() {
		got, gok := hw.Loc(inst)
		w, wok := want.Loc(inst)
		if got != w || gok != wok {
			t.Fatalf("%s at %+v (placed %v), sweep's HW point has it at %+v (placed %v)", inst.Name, got, gok, w, wok)
		}
	}
}

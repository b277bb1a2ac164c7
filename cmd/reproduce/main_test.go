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
	design, err := bench.Generate(lib, bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := flow.New(design, scatteredWorkload(true), flow.DefaultConfig())

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
		KeepAnalyses: true,
		Workers:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	hws := res.PointsFor(core.StrategyHW)
	if len(hws) != 1 {
		t.Fatalf("sweep measured %d HW points, want 1", len(hws))
	}
	want := hws[0].Analysis.Placement
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

// TestTable1MatchesSweep pins Table I to the Fig6 sweep: on the small
// benchmark under test set 2, Table I's four points are == to the Default
// and ERI points the sweep measures at the same overheads, every float of
// every point. On the small benchmark Table I's ERI row counts are the
// sweep's own, RowsForAreaOverhead of each overhead.
func TestTable1MatchesSweep(t *testing.T) {
	lib := celllib.Default65nm()
	design, err := bench.Generate(lib, bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	f := flow.New(design, concentratedWorkload(true), flow.DefaultConfig())
	ev, err := core.NewEvaluator(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := table1Points(ctx, f, ev, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SweepEfficiencyCtx(ctx, flow.New(design, concentratedWorkload(true), flow.DefaultConfig()),
		core.SweepOptions{Overheads: table1Overheads})
	if err != nil {
		t.Fatal(err)
	}
	want := append(res.PointsFor(core.StrategyDefault), res.PointsFor(core.StrategyERI)...)
	if len(got) != len(want) {
		t.Fatalf("Table I has %d points, the sweep %d Default and ERI points", len(got), len(want))
	}
	for i, g := range got {
		if g.Analysis == nil {
			t.Fatalf("Table I point %d kept no analysis for its core W x H", i)
		}
		g.Analysis = nil
		if g != want[i] {
			t.Errorf("point %d differs:\n  Table I: %+v\n  sweep:   %+v", i, g, want[i])
		}
	}
}

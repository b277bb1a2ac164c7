package flow

import (
	"context"
	"testing"

	"thermplace/internal/place"
)

// TestReflowAtMatchesPlaceAt requires the incremental placement path to be
// bit-identical to the from-scratch one at sweep-typical utilizations.
func TestReflowAtMatchesPlaceAt(t *testing.T) {
	f := smallFlow(t)
	for _, util := range []float64{0.60, 0.71, 0.92} {
		inc, delta, err := f.ReflowAt(util)
		if err != nil {
			t.Fatalf("ReflowAt(%v): %v", util, err)
		}
		if !delta.IsFull() {
			t.Fatalf("ReflowAt(%v): want full delta, got %+v", util, delta)
		}
		scratch, err := f.PlaceAtAspect(util, f.Config.AspectRatio)
		if err != nil {
			t.Fatal(err)
		}
		for _, inst := range f.Design.Instances() {
			if inst.IsFiller() {
				continue
			}
			li, iok := inc.Loc(inst)
			ls, sok := scratch.Loc(inst)
			if iok != sok || li != ls {
				t.Fatalf("util %v: %s at %v/%v, want %v/%v", util, inst.Name, li, iok, ls, sok)
			}
		}
		if ih, sh := inc.TotalHPWL(), scratch.TotalHPWL(); ih != sh {
			t.Fatalf("util %v: HPWL %v vs %v", util, ih, sh)
		}
	}
}

// TestReflowAtZeroDeltaReturnsCachedAnalysis is the zero-delta no-op
// contract: reflowing to the baseline utilization hands back the cached
// baseline placement with an empty delta, and AnalyzeWithCtx resolves that to
// the cached baseline analysis without re-running anything.
func TestReflowAtZeroDeltaReturnsCachedAnalysis(t *testing.T) {
	f := smallFlow(t)
	base, err := f.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	p, delta, err := f.ReflowAt(f.Config.Utilization)
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Empty() {
		t.Fatalf("want empty delta at the baseline utilization, got %+v", delta)
	}
	if p != base.Placement {
		t.Fatal("want the cached baseline placement, got a fresh one")
	}
	an, err := f.AnalyzeWithCtx(context.Background(), p, AnalyzeOptions{Parent: base, Delta: delta})
	if err != nil {
		t.Fatal(err)
	}
	if an != base {
		t.Fatal("zero-delta analysis must return the cached baseline analysis")
	}
	// And AnalyzeBaseline itself is cached across calls.
	again, err := f.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	if again != base {
		t.Fatal("AnalyzeBaseline must return the cached analysis on a second call")
	}
}

// TestAnalyzeWithDeltaBitIdentical analyzes a derived placement through
// the delta path (Report.Update + lineage-seeded solve) and through the
// from-scratch path on an identical twin flow, requiring == results — the
// flow-level half of the incremental sweep's bit-identity guarantee.
func TestAnalyzeWithDeltaBitIdentical(t *testing.T) {
	f := smallFlow(t)
	base, err := f.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}

	// Derive an edited placement under delta recording (an ERI-style row
	// disturbance).
	edited := base.Placement.Clone()
	edited.BeginDelta()
	insts := f.Design.Instances()
	for i := 7; i < len(insts) && i < 300; i += 23 {
		inst := insts[i]
		if inst.IsFiller() {
			continue
		}
		l, ok := edited.Loc(inst)
		if !ok {
			continue
		}
		row := (l.Row + 2) % edited.FP.NumRows()
		edited.SetLoc(inst, place.Loc{X: l.X, Row: row})
	}
	place.Legalize(edited)
	place.InsertFillers(edited)
	delta := edited.EndDelta()
	if delta.Empty() || delta.IsFull() {
		t.Fatalf("edit should record a surgical delta, got full=%v empty=%v", delta.IsFull(), delta.Empty())
	}

	inc, err := f.AnalyzeWithCtx(context.Background(), edited, AnalyzeOptions{Parent: base, Delta: delta})
	if err != nil {
		t.Fatal(err)
	}

	// From-scratch reference on a fresh flow (identical config/workload),
	// analyzed with the same lineage seeding but no delta.
	g := New(f.Design, f.Workload, f.Config)
	gbase, err := g.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := g.AnalyzeWithCtx(context.Background(), edited.Clone(), AnalyzeOptions{Parent: gbase})
	if err != nil {
		t.Fatal(err)
	}

	if inc.Power.Total() != ref.Power.Total() {
		t.Fatalf("power differs: %v vs %v", inc.Power.Total(), ref.Power.Total())
	}
	iv, rv := inc.PowerMap.Values(), ref.PowerMap.Values()
	for i := range iv {
		if iv[i] != rv[i] {
			t.Fatalf("power map differs at cell %d: %v vs %v", i, iv[i], rv[i])
		}
	}
	if inc.Thermal.PeakRise != ref.Thermal.PeakRise {
		t.Fatalf("peak rise differs: %v vs %v", inc.Thermal.PeakRise, ref.Thermal.PeakRise)
	}
	it, rt := inc.Thermal.Surface.Values(), ref.Thermal.Surface.Values()
	for i := range it {
		if it[i] != rt[i] {
			t.Fatalf("thermal map differs at cell %d: %v vs %v", i, it[i], rt[i])
		}
	}
}

// TestCoAnalysisPopulatedAndIncremental verifies the co-analysis contract:
// every analysis carries a temperature-derated timing report, a congestion
// report and the HPWL, and a delta-driven child analysis reports exactly
// the timing a from-scratch analysis of its placement under its own
// resolved options does.
func TestCoAnalysisPopulatedAndIncremental(t *testing.T) {
	f := smallFlow(t)
	base, err := f.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	if base.Timing == nil || base.Congestion == nil {
		t.Fatal("co-analysis reports must be populated on every analysis")
	}
	if base.Timing.CriticalPathPs <= 0 || base.HPWL <= 0 {
		t.Fatalf("degenerate co-analysis: critical path %v ps, HPWL %v", base.Timing.CriticalPathPs, base.HPWL)
	}
	if base.Timing.SlackPs == 0 {
		t.Fatal("slack must be wired from the config clock")
	}

	// Move a handful of cells through a recorded delta.
	twin := base.Placement.Clone()
	twin.BeginDelta()
	moved := 0
	for _, inst := range f.Design.Instances() {
		if inst.IsFiller() {
			continue
		}
		l, ok := twin.Loc(inst)
		if !ok {
			continue
		}
		if l.X+8*twin.FP.SiteWidth < twin.FP.Core.Xhi-inst.Master.Width {
			l.X += 8 * twin.FP.SiteWidth
		} else {
			l.X -= 8 * twin.FP.SiteWidth
		}
		twin.SetLoc(inst, l)
		if moved++; moved == 12 {
			break
		}
	}
	delta := twin.EndDelta()
	child, err := f.AnalyzeWithCtx(context.Background(), twin, AnalyzeOptions{Parent: base, Delta: delta})
	if err != nil {
		t.Fatal(err)
	}
	if child.Timing == base.Timing || child.Congestion == nil || child.HPWL <= 0 {
		t.Fatal("the child analysis must carry its own co-analysis reports")
	}
	ta, err := f.ta()
	if err != nil {
		t.Fatal(err)
	}
	ref := ta.Analyze(twin, f.timingOptions(child.Thermal))
	if ref.CriticalPathPs != child.Timing.CriticalPathPs || ref.SlackPs != child.Timing.SlackPs {
		t.Fatalf("delta-driven timing differs: full cp %v slack %v vs child cp %v slack %v",
			ref.CriticalPathPs, ref.SlackPs, child.Timing.CriticalPathPs, child.Timing.SlackPs)
	}
}

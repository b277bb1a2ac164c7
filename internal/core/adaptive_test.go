package core

import (
	"math"
	"testing"
)

// adaptiveKey identifies a sweep point across runs (the candidate it came
// from), independent of how the run triaged.
type adaptiveKey struct {
	strategy Strategy
	rows     int
	aspect   float64
	util     float64
}

func keyOf(p *EfficiencyPoint) adaptiveKey {
	return adaptiveKey{strategy: p.Strategy, rows: p.Rows, aspect: p.Aspect, util: p.Utilization}
}

// TestAdaptiveSweepMatchesExhaustive pins the exactness contract of the
// adaptive sweep: every surviving point is bit-identical (struct ==) to the
// same candidate's point in the exhaustive run over the same densified
// grid, and the 2D Pareto front of the exhaustive run is exactly the front
// of the adaptive run.
func TestAdaptiveSweepMatchesExhaustive(t *testing.T) {
	f := hotFlow(t, "mult8")
	defer f.Close()
	base := SweepOptions{
		Overheads: []float64{0.05, 0.40},
		Workers:   4,
	}
	aspects := []float64{1.0, 2.5}
	exOpts := base
	exOpts.Adaptive = &AdaptiveOptions{GridScale: 3, Margin: math.Inf(1), CoarseFactor: 2, Aspects: aspects}
	exhaustive, err := SweepEfficiency(f, exOpts)
	if err != nil {
		t.Fatal(err)
	}
	adOpts := base
	adOpts.Adaptive = &AdaptiveOptions{GridScale: 3, Margin: 0.04, CoarseFactor: 2, Aspects: aspects}
	adaptive, err := SweepEfficiency(f, adOpts)
	if err != nil {
		t.Fatal(err)
	}

	ts := adaptive.Triage
	if ts == nil {
		t.Fatal("adaptive sweep must record triage stats")
	}
	if ex := exhaustive.Triage; ex == nil || ex.Survivors != ex.Candidates {
		t.Fatalf("exhaustive mode must keep every candidate, got %+v", ex)
	}
	if ts.Candidates != exhaustive.Triage.Candidates {
		t.Fatalf("candidate grids differ: %d vs %d", ts.Candidates, exhaustive.Triage.Candidates)
	}
	if ts.Survivors >= ts.Candidates {
		t.Fatalf("triage kept all %d candidates; margin %g should have dropped some", ts.Candidates, ts.Margin)
	}
	if ts.CoarseSolves == 0 || ts.ExactSolves == 0 {
		t.Fatalf("solve counters not recorded: %+v", ts)
	}
	if len(adaptive.Points) >= len(exhaustive.Points) {
		t.Fatalf("adaptive run measured %d points, exhaustive %d; nothing was saved",
			len(adaptive.Points), len(exhaustive.Points))
	}

	// Every adaptive point must be the exhaustive run's measurement of the
	// same candidate, bit for bit.
	exact := make(map[adaptiveKey]EfficiencyPoint, len(exhaustive.Points))
	for _, p := range exhaustive.Points {
		exact[keyOf(&p)] = p
	}
	for _, p := range adaptive.Points {
		ref, ok := exact[keyOf(&p)]
		if !ok {
			t.Fatalf("adaptive point %+v has no exhaustive counterpart", p)
		}
		if p != ref {
			t.Fatalf("adaptive point differs from exhaustive measurement:\n  adaptive:   %+v\n  exhaustive: %+v", p, ref)
		}
	}

	// The true (exhaustive) 2D front must survive triage, and the adaptive
	// front must consist of exactly those points.
	trueFront := make(map[adaptiveKey]bool)
	for _, i := range exhaustive.Front2D() {
		trueFront[keyOf(&exhaustive.Points[i])] = true
	}
	adFront := make(map[adaptiveKey]bool)
	for _, i := range adaptive.Front2D() {
		adFront[keyOf(&adaptive.Points[i])] = true
	}
	for k := range trueFront {
		if !adFront[k] {
			t.Fatalf("true front point %+v missing from the adaptive front", k)
		}
	}
	for k := range adFront {
		if !trueFront[k] {
			t.Fatalf("adaptive front point %+v is not on the true front", k)
		}
	}

	// Error accounting: the histogram covers every est-vs-exact pair.
	histTotal := 0
	for _, n := range ts.ErrHist {
		histTotal += n
	}
	if histTotal == 0 {
		t.Fatal("error histogram is empty")
	}
	if math.IsNaN(ts.MaxEstErrC) || ts.MaxEstErrC < 0 {
		t.Fatalf("non-physical MaxEstErrC %g", ts.MaxEstErrC)
	}
}

// TestAdaptiveInjectionBreaksFront drives the negative-injection knob: a
// biased coarse estimate must push true-front points out of the survivor
// set, which the harness turns into a failed run.
func TestAdaptiveInjectionBreaksFront(t *testing.T) {
	f := hotFlow(t, "mult8")
	defer f.Close()
	base := SweepOptions{
		Overheads: []float64{0.05, 0.40},
		Workers:   4,
	}
	aspects := []float64{1.0, 2.5}
	exOpts := base
	exOpts.Adaptive = &AdaptiveOptions{GridScale: 3, Margin: math.Inf(1), CoarseFactor: 2, Aspects: aspects}
	exhaustive, err := SweepEfficiency(f, exOpts)
	if err != nil {
		t.Fatal(err)
	}
	adOpts := base
	adOpts.Adaptive = &AdaptiveOptions{
		GridScale: 3, Margin: 0.04, CoarseFactor: 2, Aspects: aspects,
		InjectEstRiseBiasC: 1000,
	}
	broken, err := SweepEfficiency(f, adOpts)
	if err != nil {
		t.Fatal(err)
	}
	have := make(map[adaptiveKey]bool, len(broken.Points))
	for _, p := range broken.Points {
		have[keyOf(&p)] = true
	}
	missing := 0
	for _, i := range exhaustive.Front2D() {
		if !have[keyOf(&exhaustive.Points[i])] {
			missing++
		}
	}
	if missing == 0 {
		t.Fatal("a 1000C estimate bias dropped no true-front point; the injection knob is dead")
	}
}

// TestAdaptiveValidation rejects nonsensical options.
func TestAdaptiveValidation(t *testing.T) {
	f := hotFlow(t, "mult8")
	defer f.Close()
	for _, af := range []AdaptiveOptions{
		{CoarseFactor: 1},
		{Margin: -0.1, CoarseFactor: 2},
		{Margin: math.NaN(), CoarseFactor: 2},
	} {
		af := af
		if _, err := SweepEfficiency(f, SweepOptions{Adaptive: &af}); err == nil {
			t.Fatalf("options %+v must be rejected", af)
		}
	}
}

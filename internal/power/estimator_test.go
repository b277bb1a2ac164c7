package power

import (
	"testing"

	"thermplace/internal/bench"
	"thermplace/internal/place"
)

// sameReport requires bit-identical breakdowns for every instance.
func sameReport(t *testing.T, want, got *Report, label string) {
	t.Helper()
	if len(want.Instances()) != len(got.Instances()) {
		t.Fatalf("%s: instance count differs: %d vs %d", label, len(got.Instances()), len(want.Instances()))
	}
	for _, inst := range want.Instances() {
		w, g := want.Breakdown(inst), got.Breakdown(inst)
		if w != g {
			t.Fatalf("%s: %s breakdown differs:\n  got  %+v\n  want %+v", label, inst.Name, g, w)
		}
	}
	if want.Total() != got.Total() {
		t.Fatalf("%s: totals differ: %v vs %v", label, got.Total(), want.Total())
	}
}

// TestEstimatorMatchesEstimate pins the estimator's split evaluation
// (precomputed statics + placement pass) to the one-shot Estimate on both a
// placed and an unplaced design.
func TestEstimatorMatchesEstimate(t *testing.T) {
	d, p, act := preparedDesign(t, bench.UniformWorkload(0.3))
	est := NewEstimator(d, act, 1e9)
	sameReport(t, Estimate(d, p, act, 1e9), est.Report(p), "placed")
	sameReport(t, Estimate(d, nil, act, 1e9), est.Report(nil), "unplaced")
}

// TestUpdateBitIdenticalToFreshReport moves a handful of cells under delta
// recording and requires Report.Update to reproduce a from-scratch estimate
// of the edited placement exactly — the power half of the incremental
// pipeline's bit-identity guarantee.
func TestUpdateBitIdenticalToFreshReport(t *testing.T) {
	d, p, act := preparedDesign(t, bench.UniformWorkload(0.3))
	est := NewEstimator(d, act, 1e9)
	base := est.Report(p)

	edited := p.Clone()
	edited.BeginDelta()
	insts := d.Instances()
	for i := 5; i < len(insts) && i < 400; i += 37 {
		inst := insts[i]
		if inst.IsFiller() {
			continue
		}
		l, ok := edited.Loc(inst)
		if !ok {
			continue
		}
		row := (l.Row + 3) % edited.FP.NumRows()
		edited.SetLoc(inst, place.Loc{X: l.X, Row: row})
	}
	place.Legalize(edited)
	delta := edited.EndDelta()
	if delta.Empty() || delta.IsFull() {
		t.Fatalf("edit should record a surgical delta, got full=%v empty=%v", delta.IsFull(), delta.Empty())
	}

	sameReport(t, est.Report(edited), base.Update(edited, delta), "update")

	// An untouched instance's breakdown must be carried over (not merely
	// equal): spot-check that at least one entry is shared unchanged.
	carried := 0
	movedSet := make(map[int32]bool)
	for _, ord := range delta.Moved() {
		movedSet[ord] = true
	}
	for _, inst := range base.Instances() {
		if !movedSet[int32(inst.Ord())] {
			carried++
		}
	}
	if carried == 0 {
		t.Fatal("edit moved every instance; delta test needs untouched cells")
	}

	// A full delta must also fall back to a correct full report.
	sameReport(t, est.Report(edited), base.Update(edited, place.FullDelta()), "full-fallback")
}

// TestUpdateAfterComposedDeltas chains two recorded edits and updates the
// original report across each delta in turn: an updated report must itself
// be a valid base for the next update.
func TestUpdateAfterComposedDeltas(t *testing.T) {
	d, p, act := preparedDesign(t, bench.UniformWorkload(0.3))
	est := NewEstimator(d, act, 1e9)
	base := est.Report(p)

	step1 := p.Clone()
	step1.BeginDelta()
	insts := d.Instances()
	l0, _ := step1.Loc(insts[10])
	step1.SetLoc(insts[10], place.Loc{X: l0.X + 2*step1.FP.SiteWidth, Row: l0.Row})
	place.Legalize(step1)
	d1 := step1.EndDelta()

	step2 := step1.Clone()
	step2.BeginDelta()
	l1, _ := step2.Loc(insts[200])
	row := (l1.Row + 1) % step2.FP.NumRows()
	step2.SetLoc(insts[200], place.Loc{X: l1.X, Row: row})
	place.Legalize(step2)
	d2 := step2.EndDelta()

	sameReport(t, est.Report(step2), base.Update(step1, d1).Update(step2, d2), "composed")
}

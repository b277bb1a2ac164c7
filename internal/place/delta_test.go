package place

import (
	"testing"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/floorplan"
)

// samePlacement requires bit-identical cell coordinates, floorplans and
// filler lists.
func samePlacement(t *testing.T, want, got *Placement, label string) {
	t.Helper()
	if want.FP.Core != got.FP.Core {
		t.Fatalf("%s: core differs: %v vs %v", label, got.FP.Core, want.FP.Core)
	}
	if wn, gn := want.FP.NumRows(), got.FP.NumRows(); wn != gn {
		t.Fatalf("%s: row count differs: %d vs %d", label, gn, wn)
	}
	for _, inst := range want.Design.Instances() {
		if inst.IsFiller() {
			continue
		}
		wl, wok := want.Loc(inst)
		gl, gok := got.Loc(inst)
		if wok != gok || wl != gl {
			t.Fatalf("%s: %s placed at %v/%v, want %v/%v", label, inst.Name, gl, gok, wl, wok)
		}
	}
	for _, port := range want.Design.Ports() {
		wp, wok := want.PortLoc(port)
		gp, gok := got.PortLoc(port)
		if wok != gok || wp != gp {
			t.Fatalf("%s: port %s at %v/%v, want %v/%v", label, port.Name, gp, gok, wp, wok)
		}
	}
	if len(want.Fillers) != len(got.Fillers) {
		t.Fatalf("%s: filler count differs: %d vs %d", label, len(got.Fillers), len(want.Fillers))
	}
	for i := range want.Fillers {
		if want.Fillers[i] != got.Fillers[i] {
			t.Fatalf("%s: filler %d differs: %+v vs %+v", label, i, got.Fillers[i], want.Fillers[i])
		}
	}
}

// TestReflowMatchesFromScratch drives Reflow both below the baseline
// utilization (the sweep's relaxation direction) and above it (compaction)
// and requires the derived placement to be bit-identical to a from-scratch
// placement at the same utilization — the contract the incremental sweep's
// Default points rely on.
func TestReflowMatchesFromScratch(t *testing.T) {
	lib := celllib.Default65nm()
	d, err := bench.Generate(lib, bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	const baseUtil = 0.85
	fp, err := floorplan.New(d, floorplan.Config{Utilization: baseUtil, AspectRatio: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := PlaceWithoutFillers(d, fp)
	if err != nil {
		t.Fatal(err)
	}
	for _, util := range []float64{0.60, 0.75, baseUtil, 0.92} {
		derived, delta, err := base.Reflow(util)
		if err != nil {
			t.Fatalf("reflow to %.2f: %v", util, err)
		}
		if !delta.IsFull() {
			t.Fatalf("reflow to %.2f: want a full delta, got %+v", util, delta)
		}
		RefineHPWL(derived, 1)
		InsertFillers(derived)

		fp2, err := floorplan.New(d, floorplan.Config{Utilization: util, AspectRatio: 1})
		if err != nil {
			t.Fatal(err)
		}
		scratch, err := PlaceWithoutFillers(d, fp2)
		if err != nil {
			t.Fatal(err)
		}
		RefineHPWL(scratch, 1)
		InsertFillers(scratch)

		samePlacement(t, scratch, derived, "reflow")
		if errs := derived.Validate(); len(errs) != 0 {
			t.Fatalf("reflowed placement at %.2f not legal: %v", util, errs[0])
		}
		if hs, hd := scratch.TotalHPWL(), derived.TotalHPWL(); hs != hd {
			t.Fatalf("HPWL differs at %.2f: %v vs %v", util, hd, hs)
		}
	}
}

// TestReflowOfReflowedPlacement checks a derived placement can itself be
// reflowed (the shared unit order survives the derivation).
func TestReflowOfReflowedPlacement(t *testing.T) {
	lib := celllib.Default65nm()
	d, err := bench.Generate(lib, bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	fp, err := floorplan.New(d, floorplan.Config{Utilization: 0.85, AspectRatio: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := PlaceWithoutFillers(d, fp)
	if err != nil {
		t.Fatal(err)
	}
	mid, _, err := base.Reflow(0.75)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := mid.Reflow(0.66)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := floorplan.New(d, floorplan.Config{Utilization: 0.66, AspectRatio: 1})
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := PlaceWithoutFillers(d, fp2)
	if err != nil {
		t.Fatal(err)
	}
	samePlacement(t, scratch, again, "reflow-of-reflow")
}

// TestDeltaRecordingSurgical verifies BeginDelta/EndDelta capture exactly
// the touched instances and the nets on their pins.
func TestDeltaRecordingSurgical(t *testing.T) {
	d, p := placedSmall(t, 0.85)
	insts := d.Instances()
	a, b := insts[3], insts[57]
	la, _ := p.Loc(a)
	lb, _ := p.Loc(b)

	q := p.Clone()
	q.BeginDelta()
	// Move a to b's row, leave b alone via a no-op SetLoc.
	q.SetLoc(a, Loc{X: la.X, Row: lb.Row})
	q.SetLoc(b, lb) // no-op: must not be recorded
	delta := q.EndDelta()

	if delta.IsFull() || delta.Empty() {
		t.Fatalf("want a surgical delta, got full=%v empty=%v", delta.IsFull(), delta.Empty())
	}
	if len(delta.Moved()) != 1 || int(delta.Moved()[0]) != a.Ord() {
		t.Fatalf("moved = %v, want just ordinal %d", delta.Moved(), a.Ord())
	}
	if len(delta.DirtyNets()) != len(q.instNets[a.Ord()]) {
		t.Fatalf("dirty nets %v, want the %d nets touching %s", delta.DirtyNets(), len(q.instNets[a.Ord()]), a.Name)
	}
}

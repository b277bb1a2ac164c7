package place

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/floorplan"
	"thermplace/internal/geom"
	"thermplace/internal/netlist"
)

// refineReference is RefineHPWL as its definition reads, with none of its
// shortcuts: each candidate swap is made with SetLoc, every touched net's
// box is recomputed from the pins before and after (computeNetBBox, never
// the cache, no skipped net), and the pair is moved back. It keeps
// RefineHPWL's row order, accept rule and summation order (a's nets, then
// b's that a does not share). Trials run with the delta recorder off; an
// accepted swap is made again with it on, as a real move records.
func refineReference(p *Placement, passes int) int {
	accepted := 0
	for pass := 0; pass < passes; pass++ {
		improved := 0
		for row := 0; row < p.FP.NumRows(); row++ {
			occ := refRowOccupants(p, row)
			for i := 0; i+1 < len(occ); i++ {
				a, b := occ[i], occ[i+1]
				la, _ := p.Loc(a)
				lb, _ := p.Loc(b)
				if la.Y != lb.Y {
					continue
				}
				nets := pinNets(a)
				for _, n := range pinNets(b) {
					if !slices.Contains(nets, n) {
						nets = append(nets, n)
					}
				}
				before := make([]float64, len(nets))
				for k, n := range nets {
					before[k] = p.computeNetBBox(n).W()
				}
				left := la
				if lb.X < la.X {
					left = lb
				}
				newB := Loc{X: left.X, Y: left.Y, Row: left.Row}
				newA := Loc{X: left.X + b.Master.Width, Y: left.Y, Row: left.Row}
				rec := p.rec
				p.rec = nil
				p.SetLoc(b, newB)
				p.SetLoc(a, newA)
				delta := 0.0
				for k, n := range nets {
					delta += p.computeNetBBox(n).W() - before[k]
				}
				p.SetLoc(a, la)
				p.SetLoc(b, lb)
				p.rec = rec
				if delta < -1e-9 {
					p.SetLoc(b, newB)
					p.SetLoc(a, newA)
					occ[i], occ[i+1] = b, a
					accepted++
					improved++
				}
			}
		}
		if improved == 0 {
			break
		}
	}
	return accepted
}

// pinNets lists the distinct nets on the instance's pins in master pin
// order, read from the netlist.
func pinNets(inst *netlist.Instance) []*netlist.Net {
	var out []*netlist.Net
	for _, pin := range inst.Master.Pins {
		if n := inst.Conn(pin.Name); n != nil && !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	return out
}

// requireSameRefinement fails the test unless RefineHPWL's placement got
// and the reference's want agree ==: swap counts, every location, every row
// bucket and row position, every box the cache of got marks valid against
// its pins, and TotalHPWL's bits.
func requireSameRefinement(t *testing.T, what string, got, want *Placement, gotSwaps, wantSwaps int) {
	t.Helper()
	if gotSwaps != wantSwaps {
		t.Fatalf("%s: %d swaps, reference %d", what, gotSwaps, wantSwaps)
	}
	for ord, inst := range got.insts {
		if got.placed[ord] != want.placed[ord] || got.locs[ord] != want.locs[ord] {
			t.Fatalf("%s: %s at %+v, reference %+v", what, inst.Name, got.locs[ord], want.locs[ord])
		}
	}
	for row, ref := range want.rowOcc {
		if bucket := got.rowOcc[row]; !slices.Equal(bucket, ref) {
			k := 0
			for k < min(len(bucket), len(ref)) && bucket[k] == ref[k] {
				k++
			}
			t.Fatalf("%s: row %d bucket %v, reference %v, from entry %d of %d",
				what, row, bucket[k:min(k+3, len(bucket))], ref[k:min(k+3, len(ref))], k, len(ref))
		}
	}
	for ord, pos := range want.rowPos {
		if got.rowPos[ord] != pos {
			t.Fatalf("%s: %s at row position %d, reference %d", what, got.insts[ord].Name, got.rowPos[ord], pos)
		}
	}
	for ord, n := range got.nets {
		if box, fresh := got.netBox[ord], got.computeNetBBox(n); got.netBoxValid[ord] && box != fresh {
			t.Fatalf("%s: net %s cached box %.17g is valid but its pins give %.17g", what, n.Name,
				[4]float64{box.Xlo, box.Ylo, box.Xhi, box.Yhi}, [4]float64{fresh.Xlo, fresh.Ylo, fresh.Xhi, fresh.Yhi})
		}
	}
	if g, w := got.TotalHPWL(), want.TotalHPWL(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("%s: TotalHPWL %.17g, reference %.17g", what, g, w)
	}
}

// unrefined places a generated scenario without fillers, as the flow does
// before it refines.
func unrefined(t *testing.T, fam bench.Family, cells int, util float64) *Placement {
	t.Helper()
	g, err := bench.Scenario{Family: fam, Seed: 1, TargetCells: cells}.Generate(celllib.Default65nm())
	if err != nil {
		t.Fatal(err)
	}
	fp, err := floorplan.New(g.Design, floorplan.Config{Utilization: util, AspectRatio: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := PlaceWithoutFillers(g.Design, fp)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRefineHPWLMatchesReference holds RefineHPWL's shortcuts (the skipped
// nets, the boxes kept valid across a swap, the O(1) row exchange) to the
// reference refinement, pass by pass: every family at two utilizations,
// cold-50k's design (not under -short), a pass recorded as a Delta, and a
// row whose overlapping cells force the SetLoc fallback.
func TestRefineHPWLMatchesReference(t *testing.T) {
	for _, fam := range bench.Families() {
		for _, util := range []float64{0.85, 0.70} {
			t.Run(fmt.Sprintf("%s/util=%.2f", fam, util), func(t *testing.T) {
				p := unrefined(t, fam, 3000, util)
				got, want := p.Clone(), p.Clone()
				total := 0
				for pass := 1; pass <= 3; pass++ {
					swaps := RefineHPWL(got, 1)
					requireSameRefinement(t, fmt.Sprintf("pass %d", pass), got, want, swaps, refineReference(want, 1))
					total += swaps
				}
				if total == 0 {
					t.Fatal("no swap accepted: the comparison covers nothing")
				}
			})
		}
	}

	t.Run("wide-datapath/cells=50000", func(t *testing.T) {
		if testing.Short() {
			t.Skip("50k-cell placement in -short mode")
		}
		p := unrefined(t, bench.FamilyWideDatapath, 50000, 0.85)
		got, want := p.Clone(), p.Clone()
		requireSameRefinement(t, "pass 1", got, want, RefineHPWL(got, 1), refineReference(want, 1))
	})

	t.Run("delta", func(t *testing.T) {
		p := unrefined(t, bench.FamilyPaperSynth9, 3000, 0.85)
		got, want := p.Clone(), p.Clone()
		got.BeginDelta()
		swaps := RefineHPWL(got, 1)
		gotDelta := got.EndDelta()
		want.BeginDelta()
		wantSwaps := refineReference(want, 1)
		wantDelta := want.EndDelta()
		requireSameRefinement(t, "pass 1", got, want, swaps, wantSwaps)
		if len(wantDelta.Moved()) == 0 {
			t.Fatal("reference recorded no move")
		}
		if !slices.Equal(gotDelta.Moved(), wantDelta.Moved()) || !slices.Equal(gotDelta.DirtyNets(), wantDelta.DirtyNets()) {
			t.Fatalf("delta moved %d cells and %d nets, reference %d and %d",
				len(gotDelta.Moved()), len(gotDelta.DirtyNets()), len(wantDelta.Moved()), len(wantDelta.DirtyNets()))
		}
	})

	t.Run("overlapping-row", func(t *testing.T) {
		p := overlappingRow(t)
		got, want := p.Clone(), p.Clone()
		swaps := RefineHPWL(got, 1)
		requireSameRefinement(t, "pass 1", got, want, swaps, refineReference(want, 1))
		names := func(p *Placement) (out []string) {
			for _, inst := range p.rowOccupants(0) {
				out = append(out, inst.Name)
			}
			return out
		}
		if got := names(got); !slices.Equal(got, []string{"b", "n", "a"}) {
			t.Fatalf("row 0 reads %v after the swap, want [b n a]: a moves past its overlapping neighbour n", got)
		}
	})
}

// overlappingRow builds an unlegalized row: a (INV_X1) at the row start, b
// (XOR3_X1) abutting it, and n (INV_X1) overlapping b. b's net runs to a
// pad on the left and a's to one on the right, so swapping a and b pays.
// The swap puts a 2.4 um right of the row start, past n at 1.0 um, so the
// pair cannot stay where it was in the bucket and the swap must take the
// SetLoc fallback.
func overlappingRow(t *testing.T) *Placement {
	t.Helper()
	d := netlist.NewDesign("overlap", celllib.Default65nm())
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	inst := func(name, master string) *netlist.Instance {
		i, err := d.AddInstance(name, master, "")
		must(err)
		return i
	}
	a, b, n := inst("a", "INV_X1"), inst("b", "XOR3_X1"), inst("n", "INV_X1")
	l, err := d.AddPort("l", netlist.In)
	must(err)
	r, err := d.AddPort("r", netlist.Out)
	must(err)
	must(d.Connect(b, "A", l.Net))
	must(d.Connect(a, "Z", r.Net))
	fp, err := floorplan.New(d, floorplan.Config{Utilization: 0.1, AspectRatio: 1})
	must(err)
	p := NewPlacement(d, fp)
	row := fp.Rows[0]
	for _, c := range []struct {
		inst *netlist.Instance
		dx   float64
	}{{a, 0}, {b, 0.6}, {n, 1.0}} {
		p.SetLoc(c.inst, Loc{X: row.X0 + c.dx, Y: row.Y, Row: 0})
	}
	p.SetPortLoc(l, geom.Point{X: fp.Core.Xlo, Y: row.Y})
	p.SetPortLoc(r, geom.Point{X: fp.Core.Xhi, Y: row.Y})
	return p
}

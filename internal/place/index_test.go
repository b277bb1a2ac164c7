package place

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/floorplan"
	"thermplace/internal/geom"
	"thermplace/internal/netlist"
)

// refRowOccupants is the pre-index O(instances) reference implementation of
// rowOccupants: scan every placed instance, keep the row's, sort by (X, name).
func refRowOccupants(p *Placement, row int) []*netlist.Instance {
	var out []*netlist.Instance
	for _, inst := range p.Design.Instances() {
		if l, ok := p.Loc(inst); ok && l.Row == row {
			out = append(out, inst)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		li, _ := p.Loc(out[i])
		lj, _ := p.Loc(out[j])
		if li.X != lj.X {
			return li.X < lj.X
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// refInstancesInRect is the pre-index O(instances) reference implementation
// of InstancesInRect.
func refInstancesInRect(p *Placement, r geom.Rect) []*netlist.Instance {
	var out []*netlist.Instance
	for _, inst := range p.Design.Instances() {
		if inst.IsFiller() {
			continue
		}
		if _, ok := p.Loc(inst); !ok {
			continue
		}
		if r.Contains(p.Center(inst)) {
			out = append(out, inst)
		}
	}
	return out
}

func sameInstances(a, b []*netlist.Instance) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// freshHPWL rebuilds an uncached placement with the same cell and port
// locations and returns its total HPWL, exposing any stale entry in the
// original's net-bbox cache.
func freshHPWL(p *Placement) float64 {
	fresh := NewPlacement(p.Design, p.FP)
	for _, inst := range p.Design.Instances() {
		if l, ok := p.Loc(inst); ok {
			fresh.SetLoc(inst, l)
		}
	}
	for _, port := range p.Design.Ports() {
		if pt, ok := p.PortLoc(port); ok {
			fresh.SetPortLoc(port, pt)
		}
	}
	return fresh.TotalHPWL()
}

// TestIndexedQueriesMatchReference pins the incremental row-occupancy index
// and the cached geometry queries against the pre-index map-based
// implementations across a long randomized move sequence over the
// floorplan's rows.
func TestIndexedQueriesMatchReference(t *testing.T) {
	d, p := placedSmall(t, 0.8)
	rng := rand.New(rand.NewSource(7))
	var cells []*netlist.Instance
	for _, inst := range d.Instances() {
		if !inst.IsFiller() {
			cells = append(cells, inst)
		}
	}
	fp := p.FP
	check := func(step int) {
		t.Helper()
		for row := 0; row < fp.NumRows(); row++ {
			if got, want := p.rowOccupants(row), refRowOccupants(p, row); !sameInstances(got, want) {
				t.Fatalf("step %d: rowOccupants(%d): got %d cells, reference %d", step, row, len(got), len(want))
			}
		}
		for q := 0; q < 8; q++ {
			r := geom.NewRect(
				fp.Core.Xlo+rng.Float64()*fp.Core.W(), fp.Core.Ylo+rng.Float64()*fp.Core.H(),
				fp.Core.Xlo+rng.Float64()*fp.Core.W(), fp.Core.Ylo+rng.Float64()*fp.Core.H(),
			)
			if got, want := p.InstancesInRect(r), refInstancesInRect(p, r); !sameInstances(got, want) {
				t.Fatalf("step %d: InstancesInRect(%v): got %d cells, reference %d", step, r, len(got), len(want))
			}
		}
		if got, want := p.TotalHPWL(), freshHPWL(p); got != want {
			t.Fatalf("step %d: cached TotalHPWL %g != fresh recomputation %g", step, got, want)
		}
	}
	check(-1)
	for step := 0; step < 400; step++ {
		inst := cells[rng.Intn(len(cells))]
		p.SetLoc(inst, Loc{
			X:   fp.Core.Xlo + rng.Float64()*fp.Core.W(),
			Row: rng.Intn(fp.NumRows()),
		})
		if step%25 == 0 {
			check(step)
		}
	}
	check(400)
}

// TestCloneSharesNothingMutable ensures clone mutations (which now go
// through the occupancy index) never leak into the original's buckets.
func TestCloneSharesNothingMutable(t *testing.T) {
	d, p := placedSmall(t, 0.85)
	c := p.Clone()
	before := len(p.rowOccupants(0))
	// Move every cell of row 0 of the clone away.
	for _, inst := range c.rowOccupants(0) {
		l, _ := c.Loc(inst)
		l.Row = 1
		c.SetLoc(inst, l)
	}
	if got := len(p.rowOccupants(0)); got != before {
		t.Fatalf("mutating clone changed original row occupancy: %d -> %d", before, got)
	}
	if got, want := p.TotalHPWL(), freshHPWL(p); got != want {
		t.Fatalf("original HPWL cache corrupted by clone mutation: %g != %g", got, want)
	}
	_ = d
}

// TestInsertFillersDeterministic verifies that two placements built
// independently from the same benchmark configuration produce byte-identical
// filler lists (the old X-only unstable re-sort inside InsertFillers could
// reorder equal-X occupants and emit fillers in a run-dependent order).
func TestInsertFillersDeterministic(t *testing.T) {
	render := func() string {
		lib := celllib.Default65nm()
		d, err := bench.Generate(lib, bench.SmallConfig())
		if err != nil {
			t.Fatal(err)
		}
		fp, err := floorplan.New(d, floorplan.Config{Utilization: 0.75, AspectRatio: 1})
		if err != nil {
			t.Fatal(err)
		}
		p, err := Place(d, fp)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, f := range p.Fillers {
			fmt.Fprintf(&b, "%s %.17g %d\n", f.Master.Name, f.X, f.Row)
		}
		return b.String()
	}
	first := render()
	if first == "" {
		t.Fatal("no fillers inserted at 75% utilization")
	}
	for run := 1; run < 3; run++ {
		if got := render(); got != first {
			t.Fatalf("run %d produced a different filler list", run)
		}
	}
}

// TestLegalizeSpillsFarthestFromCentre is the regression test for the spill
// policy: when a row overflows because of a pile of cells at its left edge,
// the legalizer must evict from that pile (the cells farthest from the row
// centre) instead of evicting the right-most cells, which would displace
// innocent cells parked near the centre.
func TestLegalizeSpillsFarthestFromCentre(t *testing.T) {
	lib := celllib.Default65nm()
	d, err := bench.Generate(lib, bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	fp, err := floorplan.New(d, floorplan.Config{Utilization: 0.5, AspectRatio: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlacement(d, fp)
	var cells []*netlist.Instance
	for _, inst := range d.Instances() {
		if !inst.IsFiller() {
			cells = append(cells, inst)
		}
	}
	mid := fp.NumRows() / 2
	row := fp.Rows[mid]
	capacity := row.Width()
	ci := 0
	take := func(targetWidth float64) []*netlist.Instance {
		var out []*netlist.Instance
		w := 0.0
		for ci < len(cells) && w < targetWidth {
			out = append(out, cells[ci])
			w += cells[ci].Master.Width
			ci++
		}
		return out
	}
	// Centred cells: packed contiguously around the row centre, ~60% of
	// capacity. Their maximum distance from the centre is ~0.3 capacity.
	centred := take(0.6 * capacity)
	cw := 0.0
	for _, c := range centred {
		cw += c.Master.Width
	}
	x := row.X0 + (capacity-cw)/2
	inMid := make(map[*netlist.Instance]bool)
	for _, c := range centred {
		p.SetLoc(c, Loc{X: x, Row: mid})
		inMid[c] = true
		x += c.Master.Width
	}
	// The pile: ~60% of capacity dumped on the left edge (distance from the
	// centre ~0.5 capacity), overflowing the row by ~20%.
	pile := take(0.6 * capacity)
	for _, c := range pile {
		p.SetLoc(c, Loc{X: row.X0, Row: mid})
		inMid[c] = true
	}
	// Park everything else in the other rows at ~50% occupancy so spills
	// always find nearby space.
	for r := 0; r < fp.NumRows() && ci < len(cells); r++ {
		if r == mid {
			continue
		}
		for _, c := range take(0.5 * capacity) {
			p.SetLoc(c, Loc{X: fp.Rows[r].X0, Row: r})
		}
	}
	if ci < len(cells) {
		t.Fatalf("test setup: %d cells left unplaced", len(cells)-ci)
	}

	Legalize(p)

	evicted := 0
	for inst := range inMid {
		l, _ := p.Loc(inst)
		if l.Row == mid {
			continue
		}
		evicted++
		for _, c := range centred {
			if c == inst {
				t.Fatalf("legalizer evicted centred cell %s; it must spill the edge pile", inst.Name)
			}
		}
	}
	if evicted == 0 {
		t.Fatal("test setup: overflow did not force any eviction")
	}
	if errs := p.Validate(); len(errs) != 0 {
		t.Fatalf("legalized placement not legal: %v (and %d more)", errs[0], len(errs)-1)
	}
}

// TestRefineHPWLInvariants12k is the paper-scale property test: on the full
// 12k-cell benchmark, every refinement pass must keep the placement legal
// and must never increase the total wirelength, and the cached wirelength
// must stay coherent with a from-scratch recomputation.
func TestRefineHPWLInvariants12k(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale placement in -short mode")
	}
	d, err := bench.Generate(celllib.Default65nm(), bench.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fp, err := floorplan.New(d, floorplan.Config{Utilization: 0.85, AspectRatio: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := PlaceWithoutFillers(d, fp)
	if err != nil {
		t.Fatal(err)
	}
	prev := p.TotalHPWL()
	for pass := 1; pass <= 4; pass++ {
		swaps := RefineHPWL(p, 1)
		cur := p.TotalHPWL()
		if cur > prev+1e-6 {
			t.Fatalf("pass %d: HPWL increased %g -> %g", pass, prev, cur)
		}
		if swaps > 0 && cur >= prev {
			t.Fatalf("pass %d: %d swaps accepted but HPWL did not improve (%g -> %g)", pass, swaps, prev, cur)
		}
		if errs := p.Validate(); len(errs) != 0 {
			t.Fatalf("pass %d: placement not legal: %v (and %d more)", pass, errs[0], len(errs)-1)
		}
		prev = cur
		if swaps == 0 {
			break
		}
	}
	if got, want := p.TotalHPWL(), freshHPWL(p); got != want {
		t.Fatalf("cached TotalHPWL %g != fresh recomputation %g", got, want)
	}
	InsertFillers(p)
	if errs := p.Validate(); len(errs) != 0 {
		t.Fatalf("final placement not legal: %v", errs[0])
	}
}

package place

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/floorplan"
	"thermplace/internal/geom"
	"thermplace/internal/netlist"
)

// insertEmptyRowsReference is InsertEmptyRows cell by cell: the floorplan
// grows one row per insertion, highest index first, and every placed
// instance whose row shifts is moved with its own SetLoc, in creation
// order.
func insertEmptyRowsReference(t *testing.T, p *Placement, at []int) {
	t.Helper()
	for i := len(at) - 1; i >= 0; i-- {
		if err := p.FP.InsertRows(at[i], 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, inst := range p.Design.Instances() {
		l, ok := p.Loc(inst)
		if !ok {
			continue
		}
		shift := sort.SearchInts(at, l.Row+1)
		if shift == 0 {
			continue
		}
		l.Row += shift
		p.SetLoc(inst, l)
	}
}

// requireSameShift fails the test unless got and want agree ==: the
// floorplan's core and rows, every location, every row bucket and row
// position, which boxes the cache holds valid (each valid box of got must
// be its pins' box), and the filler list.
func requireSameShift(t *testing.T, what string, got, want *Placement) {
	t.Helper()
	if got.FP.Core != want.FP.Core || !slices.Equal(got.FP.Rows, want.FP.Rows) {
		t.Fatalf("%s: floorplan %v with %d rows, reference %v with %d", what, got.FP.Core, got.FP.NumRows(), want.FP.Core, want.FP.NumRows())
	}
	for ord, inst := range got.insts {
		if got.placed[ord] != want.placed[ord] || got.locs[ord] != want.locs[ord] {
			t.Fatalf("%s: %s at %+v, reference %+v", what, inst.Name, got.locs[ord], want.locs[ord])
		}
		if got.rowPos[ord] != want.rowPos[ord] {
			t.Fatalf("%s: %s at row position %d, reference %d", what, inst.Name, got.rowPos[ord], want.rowPos[ord])
		}
	}
	if len(got.rowOcc) != len(want.rowOcc) {
		t.Fatalf("%s: %d row buckets, reference %d", what, len(got.rowOcc), len(want.rowOcc))
	}
	for row, ref := range want.rowOcc {
		if !slices.Equal(got.rowOcc[row], ref) {
			t.Fatalf("%s: row %d bucket %v, reference %v", what, row, got.rowOcc[row], ref)
		}
	}
	for ord, n := range got.nets {
		if got.netBoxValid[ord] != want.netBoxValid[ord] {
			t.Fatalf("%s: net %s box valid %v, reference %v", what, n.Name, got.netBoxValid[ord], want.netBoxValid[ord])
		}
		if got.netBoxValid[ord] && got.netBox[ord] != got.computeNetBBox(n) {
			t.Fatalf("%s: net %s cached box %v is valid but its pins give %v", what, n.Name, got.netBox[ord], got.computeNetBBox(n))
		}
	}
	if !slices.Equal(got.Fillers, want.Fillers) {
		t.Fatalf("%s: %d fillers, reference %d", what, len(got.Fillers), len(want.Fillers))
	}
}

// checkRowShift runs Empty Row Insertion's placement half on two clones of
// p, one with InsertEmptyRows and one with the reference, both recording a
// Delta, and requires them == after the shift and again after Legalize and
// InsertFillers, the transform's remaining steps, together with the two
// deltas.
func checkRowShift(t *testing.T, p *Placement, at []int) {
	t.Helper()
	p.TotalHPWL() // fill the box cache, so the shift's invalidation shows
	got, want := p.Clone(), p.Clone()
	got.BeginDelta()
	want.BeginDelta()
	if err := got.InsertEmptyRows(at); err != nil {
		t.Fatal(err)
	}
	insertEmptyRowsReference(t, want, at)
	requireSameShift(t, "shift", got, want)
	for _, q := range []*Placement{got, want} {
		Legalize(q)
		InsertFillers(q)
	}
	requireSameShift(t, "legalized", got, want)
	gotDelta, wantDelta := got.EndDelta(), want.EndDelta()
	if len(wantDelta.Moved()) == 0 {
		t.Fatal("reference moved no cell: the comparison covers nothing")
	}
	if !slices.Equal(gotDelta.Moved(), wantDelta.Moved()) || !slices.Equal(gotDelta.DirtyNets(), wantDelta.DirtyNets()) {
		t.Fatalf("delta moved %d cells and %d nets, reference %d and %d",
			len(gotDelta.Moved()), len(gotDelta.DirtyNets()), len(wantDelta.Moved()), len(wantDelta.DirtyNets()))
	}
}

// interleavedRows spreads n empty rows over the middle third of the rows,
// as ERI's interleaved scheme spreads them over a hotspot's row span.
func interleavedRows(p *Placement, n int) []int {
	lo, hi := p.FP.NumRows()/3, 2*p.FP.NumRows()/3
	span := hi - lo + 1
	at := make([]int, n)
	for k := range at {
		at[k] = lo + (k*span+span/2)/n
	}
	return at
}

// TestInsertEmptyRowsMatchesReference holds the bucket shift == to the
// per-cell SetLoc loop: every family at 3,000 cells and the paper design,
// each with 1, 18 and 36 empty rows, and a hand-built placement whose empty
// rows and top row take every branch.
func TestInsertEmptyRowsMatchesReference(t *testing.T) {
	for _, fam := range bench.Families() {
		p := unrefined(t, fam, 3000, 0.85)
		InsertFillers(p)
		for _, rows := range []int{1, 18, 36} {
			t.Run(fmt.Sprintf("%s/rows=%d", fam, rows), func(t *testing.T) {
				checkRowShift(t, p, interleavedRows(p, rows))
			})
		}
	}

	t.Run("paper", func(t *testing.T) {
		d, err := bench.Generate(celllib.Default65nm(), bench.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		fp, err := floorplan.New(d, floorplan.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		p, err := Place(d, fp)
		if err != nil {
			t.Fatal(err)
		}
		for _, rows := range []int{1, 18, 36} {
			checkRowShift(t, p, interleavedRows(p, rows))
		}
	})

	t.Run("hand-built", func(t *testing.T) {
		p := sparseRows(t)
		// Two rows below original row 1, one below row 2, one at the top.
		checkRowShift(t, p, []int{1, 1, 2, p.FP.NumRows()})
	})
}

// sparseRows builds a placement on which the bucket shift must take every
// branch: a cell in row 0 that keeps its row, shifted buckets of one and two
// cells, empty rows in between, and two cells in the top row, whose target
// row lies past the last bucket.
func sparseRows(t *testing.T) *Placement {
	t.Helper()
	d := netlist.NewDesign("shift", celllib.Default65nm())
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var cells []*netlist.Instance
	for i := 0; i < 7; i++ {
		c, err := d.AddInstance(fmt.Sprintf("c%d", i), "INV_X1", "")
		must(err)
		cells = append(cells, c)
	}
	in, err := d.AddPort("in", netlist.In)
	must(err)
	out, err := d.AddPort("out", netlist.Out)
	must(err)
	prev := in.Net
	for i, c := range cells {
		must(d.Connect(c, "A", prev))
		if i == len(cells)-1 {
			must(d.Connect(c, "Z", out.Net))
			break
		}
		prev = d.GetOrCreateNet(fmt.Sprintf("n%d", i))
		must(d.Connect(c, "Z", prev))
	}
	fp, err := floorplan.New(d, floorplan.Config{Utilization: 0.02, AspectRatio: 4})
	must(err)
	top := fp.NumRows() - 1
	if top < 5 {
		t.Fatalf("hand-built floorplan has %d rows, want at least 6", fp.NumRows())
	}
	p := NewPlacement(d, fp)
	for i, c := range []struct {
		row int
		dx  float64
	}{{0, 0}, {1, 1.4}, {1, 0}, {2, 0.2}, {3, 1.2}, {top, 0.8}, {top, 0.4}} {
		p.SetLoc(cells[i], Loc{X: fp.Core.Xlo + c.dx, Row: c.row})
	}
	p.SetPortLoc(in, geom.Point{X: fp.Core.Xlo, Y: fp.Core.Ylo})
	p.SetPortLoc(out, geom.Point{X: fp.Core.Xhi, Y: fp.Core.Yhi})
	return p
}

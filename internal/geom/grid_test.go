package geom

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func testGrid() *Grid { return NewGrid(4, 4, Rect{0, 0, 40, 40}) }

func TestNewGridValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero-sized grid")
		}
	}()
	NewGrid(0, 4, Rect{0, 0, 1, 1})
}

func TestNewGridEmptyRegionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty region")
		}
	}()
	NewGrid(4, 4, Rect{})
}

func TestGridSetGet(t *testing.T) {
	g := testGrid()
	g.Set(1, 2, 3.5)
	if g.At(1, 2) != 3.5 {
		t.Fatalf("At = %v", g.At(1, 2))
	}
	g.Add(1, 2, 1.5)
	if g.At(1, 2) != 5 {
		t.Fatalf("Add result = %v", g.At(1, 2))
	}
	if g.CellW() != 10 || g.CellH() != 10 {
		t.Fatalf("cell dims = %v x %v", g.CellW(), g.CellH())
	}
}

func TestGridCellOfClamps(t *testing.T) {
	g := testGrid()
	ix, iy := g.CellOf(Point{-5, 45})
	if ix != 0 || iy != 3 {
		t.Fatalf("CellOf out-of-range = (%d,%d)", ix, iy)
	}
	ix, iy = g.CellOf(Point{15, 25})
	if ix != 1 || iy != 2 {
		t.Fatalf("CellOf = (%d,%d)", ix, iy)
	}
}

func TestGridCellRectAndCenter(t *testing.T) {
	g := testGrid()
	r := g.CellRect(2, 1)
	if r != (Rect{20, 10, 30, 20}) {
		t.Fatalf("CellRect = %v", r)
	}
	if c := g.CellCenter(2, 1); c != (Point{25, 15}) {
		t.Fatalf("CellCenter = %v", c)
	}
}

func TestSpreadRectConservesTotal(t *testing.T) {
	g := testGrid()
	g.SpreadRect(Rect{5, 5, 25, 15}, 8.0)
	if !almostEqual(g.Sum(), 8.0, 1e-9) {
		t.Fatalf("Sum = %v, want 8", g.Sum())
	}
	// The rectangle covers cells (0,0),(1,0),(2,0),(0,1),(1,1),(2,1) with
	// different overlap fractions; check one exactly: cell (1,0) overlap is
	// 10x5=50 of total 200 -> 2.0.
	if !almostEqual(g.At(1, 0), 2.0, 1e-9) {
		t.Fatalf("At(1,0) = %v, want 2", g.At(1, 0))
	}
}

func TestSpreadRectOutsideRegion(t *testing.T) {
	g := testGrid()
	g.SpreadRect(Rect{100, 100, 110, 110}, 5)
	if g.Sum() != 0 {
		t.Fatalf("outside rect should contribute nothing, sum=%v", g.Sum())
	}
}

func TestGridStats(t *testing.T) {
	g := testGrid()
	for j := 0; j < 4; j++ {
		for i := 0; i < 4; i++ {
			g.Set(i, j, float64(i+4*j))
		}
	}
	if max, ix, iy := g.Max(); max != 15 || ix != 3 || iy != 3 {
		t.Fatalf("Max = %v at (%d,%d)", max, ix, iy)
	}
	if min, ix, iy := g.Min(); min != 0 || ix != 0 || iy != 0 {
		t.Fatalf("Min = %v at (%d,%d)", min, ix, iy)
	}
	if g.Sum() != 120 {
		t.Fatalf("Sum = %v", g.Sum())
	}
	if g.Mean() != 7.5 {
		t.Fatalf("Mean = %v", g.Mean())
	}
	// Gradient: max neighbour difference is 4 (vertical step).
	if gr := g.Gradient(); gr != 4 {
		t.Fatalf("Gradient = %v", gr)
	}
}

func TestGridCloneIndependence(t *testing.T) {
	g := testGrid()
	g.Set(0, 0, 1)
	c := g.Clone()
	c.Set(0, 0, 99)
	if g.At(0, 0) != 1 {
		t.Fatal("Clone must not alias the original data")
	}
}

func TestGridScale(t *testing.T) {
	g := testGrid()
	g.Fill(2)
	g.Scale(3)
	if g.At(1, 1) != 6 {
		t.Fatalf("Scale result = %v", g.At(1, 1))
	}
}

func TestGridStringOrientation(t *testing.T) {
	g := NewGrid(2, 2, Rect{0, 0, 2, 2})
	g.Set(0, 1, 7) // top-left in printed output
	s := g.String()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 2 {
		t.Fatalf("expected 2 lines, got %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "7") {
		t.Fatalf("top row should start with 7: %q", lines[0])
	}
}

func TestASCIIHeatmap(t *testing.T) {
	g := NewGrid(3, 3, Rect{0, 0, 3, 3})
	g.Set(1, 1, 10)
	hm := g.ASCIIHeatmap()
	if !strings.Contains(hm, "@") {
		t.Fatalf("heatmap should contain hottest glyph: %q", hm)
	}
	lines := strings.Split(strings.TrimSuffix(hm, "\n"), "\n")
	if len(lines) != 3 || len(lines[0]) != 3 {
		t.Fatalf("heatmap shape wrong: %q", hm)
	}
}

// Property: SpreadRect conserves the deposited total for rectangles inside
// the grid region, regardless of alignment.
func TestSpreadRectConservationProperty(t *testing.T) {
	f := func(x, y, w, h, total float64) bool {
		g := NewGrid(8, 8, Rect{0, 0, 80, 80})
		rx := math.Mod(math.Abs(x), 60)
		ry := math.Mod(math.Abs(y), 60)
		rw := 1 + math.Mod(math.Abs(w), 20)
		rh := 1 + math.Mod(math.Abs(h), 20)
		tv := math.Mod(math.Abs(total), 1000)
		g.SpreadRect(Rect{rx, ry, rx + rw, ry + rh}, tv)
		return almostEqual(g.Sum(), tv, 1e-6*math.Max(1, tv))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSpreadRectPairMatchesTwoCalls(t *testing.T) {
	// Irregular region and resolutions so cell boundaries are not round
	// numbers; the pair call hoists the per-bin division, so it must agree
	// with two independent SpreadRect calls to within one rounding.
	region := Rect{1.3, -2.7, 97.1, 55.9}
	rects := []Rect{
		{5, 5, 80, 50},          // wide, many cells
		{10.01, 3.3, 10.02, 40}, // sliver column
		{-50, -50, 3, 1},        // partially outside
		{200, 200, 210, 210},    // fully outside
		{12, 12, 12, 12},        // degenerate point
	}
	ga := NewGrid(7, 5, region)
	gb := NewGrid(7, 5, region)
	wa := NewGrid(7, 5, region)
	wb := NewGrid(7, 5, region)
	for i, r := range rects {
		ta := 1.7 * float64(i+1)
		tb := 0.3 * float64(i)
		SpreadRectPair(ga, gb, r, ta, tb)
		wa.SpreadRect(r, ta)
		wb.SpreadRect(r, tb)
	}
	for i, v := range ga.Values() {
		if !almostEqual(v, wa.Values()[i], 1e-12) {
			t.Fatalf("grid A bin %d: pair=%v single=%v", i, v, wa.Values()[i])
		}
	}
	for i, v := range gb.Values() {
		if !almostEqual(v, wb.Values()[i], 1e-12) {
			t.Fatalf("grid B bin %d: pair=%v single=%v", i, v, wb.Values()[i])
		}
	}
}

func TestSpreadRectPairGeometryMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched grid geometry")
		}
	}()
	SpreadRectPair(testGrid(), NewGrid(5, 4, Rect{0, 0, 40, 40}), Rect{1, 1, 2, 2}, 1, 1)
}

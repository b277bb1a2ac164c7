package hotspot

import (
	"math"
	"testing"

	"thermplace/internal/geom"
)

func riseMap(nx, ny int, side float64) *geom.Grid {
	return geom.NewGrid(nx, ny, geom.Rect{Xlo: 0, Ylo: 0, Xhi: side, Yhi: side})
}

func TestDetectNoRise(t *testing.T) {
	g := riseMap(10, 10, 100)
	if spots := Detect(g, DefaultOptions()); len(spots) != 0 {
		t.Fatalf("flat map should have no hotspots, got %d", len(spots))
	}
}

func TestDetectSingleHotspot(t *testing.T) {
	g := riseMap(10, 10, 100)
	g.Fill(1.0)
	// A 2x2 hot patch at (4..5, 6..7).
	for iy := 6; iy <= 7; iy++ {
		for ix := 4; ix <= 5; ix++ {
			g.Set(ix, iy, 10.0)
		}
	}
	spots := Detect(g, Options{ThresholdFrac: 0.8, MinCells: 1})
	if len(spots) != 1 {
		t.Fatalf("expected 1 hotspot, got %d", len(spots))
	}
	h := spots[0]
	if len(h.Cells) != 4 {
		t.Fatalf("hotspot has %d cells, want 4", len(h.Cells))
	}
	if h.PeakRise != 10 || math.Abs(h.MeanRise-10) > 1e-9 {
		t.Fatalf("peak/mean = %g/%g", h.PeakRise, h.MeanRise)
	}
	// Bounding box: cells are 10x10 um, so the patch covers x [40,60), y [60,80).
	want := geom.Rect{Xlo: 40, Ylo: 60, Xhi: 60, Yhi: 80}
	if h.Rect != want {
		t.Fatalf("bbox = %v, want %v", h.Rect, want)
	}
	if math.Abs(h.AreaUm2-400) > 1e-9 {
		t.Fatalf("area = %g, want 400", h.AreaUm2)
	}
	if f := h.FracOfArea(g.Region); math.Abs(f-0.04) > 1e-9 {
		t.Fatalf("area fraction = %g, want 0.04", f)
	}
}

func TestDetectMultipleHotspotsSortedAndConnected(t *testing.T) {
	g := riseMap(20, 20, 200)
	g.Fill(0.5)
	// Hotspot A: hotter, 3 cells in an L shape.
	g.Set(2, 2, 8)
	g.Set(3, 2, 8)
	g.Set(3, 3, 9)
	// Hotspot B: cooler but above threshold, 2 cells, far away.
	g.Set(15, 15, 7.5)
	g.Set(15, 16, 7.5)
	// A diagonal-only neighbour must NOT join component A (4-connectivity).
	g.Set(4, 4, 8)

	spots := Detect(g, Options{ThresholdFrac: 0.8, MinCells: 1})
	if len(spots) != 3 {
		t.Fatalf("expected 3 hotspots (L, diagonal singleton, far pair), got %d", len(spots))
	}
	// Sorted hottest first.
	if spots[0].PeakRise < spots[1].PeakRise || spots[1].PeakRise < spots[2].PeakRise {
		t.Fatal("hotspots not sorted by peak")
	}
	if spots[0].ID != 0 || spots[1].ID != 1 || spots[2].ID != 2 {
		t.Fatal("IDs must follow sort order")
	}
	// The hottest component contains 3 cells (the L), not 4.
	if len(spots[0].Cells) != 3 {
		t.Fatalf("hottest component has %d cells, want 3 (diagonal must not connect)", len(spots[0].Cells))
	}
	// MinCells filter drops the singleton.
	filtered := Detect(g, Options{ThresholdFrac: 0.8, MinCells: 2})
	if len(filtered) != 2 {
		t.Fatalf("MinCells=2 should leave 2 hotspots, got %d", len(filtered))
	}

	merged := MergedRect(spots)
	for _, h := range spots {
		if merged.Union(h.Rect) != merged {
			t.Fatal("MergedRect must contain every hotspot")
		}
	}
}

func TestDetectThresholdBehaviour(t *testing.T) {
	g := riseMap(10, 10, 100)
	g.Fill(4.9) // background just below half of peak 10
	g.Set(5, 5, 10)
	// With a 0.5 threshold the background (4.9 < 5.0) stays out.
	spots := Detect(g, Options{ThresholdFrac: 0.5, MinCells: 1})
	if len(spots) != 1 || len(spots[0].Cells) != 1 {
		t.Fatalf("expected a single one-cell hotspot, got %+v", spots)
	}
	// The threshold is relative to the spread above the mean, so even a very
	// low fraction never drags the below-mean background into the hotspot:
	// a nearly flat die does not degenerate into one whole-die hotspot.
	spots = Detect(g, Options{ThresholdFrac: 0.01, MinCells: 1})
	if len(spots) != 1 || len(spots[0].Cells) != 1 {
		t.Fatalf("low threshold must still exclude the below-mean background, got %+v", spots)
	}
	// Out-of-range thresholds fall back to the default rather than panic.
	if got := Detect(g, Options{ThresholdFrac: 5}); len(got) == 0 {
		t.Fatal("fallback threshold should still find the peak cell")
	}
}

func TestDetectFlatPositiveMap(t *testing.T) {
	g := riseMap(10, 10, 100)
	g.Fill(3.0)
	if spots := Detect(g, DefaultOptions()); len(spots) != 0 {
		t.Fatalf("a spatially flat map has no hotspots, got %d", len(spots))
	}
}

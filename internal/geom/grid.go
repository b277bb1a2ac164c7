package geom

import (
	"fmt"
	"math"
	"strings"
)

// Grid is a dense 2-D field of float64 values laid over a physical region.
// It is used for power-density maps, thermal maps and congestion maps.
// Cell (0,0) is the lower-left cell of the region.
type Grid struct {
	NX, NY int  // number of cells in x and y
	Region Rect // physical region covered by the grid
	data   []float64
}

// NewGrid creates an all-zero grid of nx by ny cells covering region.
// It panics when nx or ny is not positive or the region is empty,
// because every caller constructs grids from validated configuration.
func NewGrid(nx, ny int, region Rect) *Grid {
	if nx <= 0 || ny <= 0 {
		panic(fmt.Sprintf("geom: invalid grid size %dx%d", nx, ny))
	}
	if region.Empty() {
		panic("geom: empty grid region")
	}
	return &Grid{NX: nx, NY: ny, Region: region, data: make([]float64, nx*ny)}
}

// Clone returns a deep copy of the grid.
func (g *Grid) Clone() *Grid {
	out := &Grid{NX: g.NX, NY: g.NY, Region: g.Region, data: make([]float64, len(g.data))}
	copy(out.data, g.data)
	return out
}

// CellW returns the physical width of one grid cell.
func (g *Grid) CellW() float64 { return g.Region.W() / float64(g.NX) }

// CellH returns the physical height of one grid cell.
func (g *Grid) CellH() float64 { return g.Region.H() / float64(g.NY) }

// index converts (ix, iy) to a linear index; it panics on out-of-range
// coordinates since those always indicate a programming error.
func (g *Grid) index(ix, iy int) int {
	if ix < 0 || ix >= g.NX || iy < 0 || iy >= g.NY {
		panic(fmt.Sprintf("geom: grid index (%d,%d) out of range %dx%d", ix, iy, g.NX, g.NY))
	}
	return iy*g.NX + ix
}

// At returns the value stored at cell (ix, iy).
func (g *Grid) At(ix, iy int) float64 { return g.data[g.index(ix, iy)] }

// Set stores v at cell (ix, iy).
func (g *Grid) Set(ix, iy int, v float64) { g.data[g.index(ix, iy)] = v }

// Add accumulates v into cell (ix, iy).
func (g *Grid) Add(ix, iy int, v float64) { g.data[g.index(ix, iy)] += v }

// Fill sets every cell to v.
func (g *Grid) Fill(v float64) {
	for i := range g.data {
		g.data[i] = v
	}
}

// Values returns the underlying storage in row-major order (y-major:
// index = iy*NX + ix). The caller must not resize it.
func (g *Grid) Values() []float64 { return g.data }

// CellOf returns the grid coordinates of the cell containing physical point
// p, clamped to the grid boundary.
func (g *Grid) CellOf(p Point) (ix, iy int) {
	ix = int(math.Floor((p.X - g.Region.Xlo) / g.CellW()))
	iy = int(math.Floor((p.Y - g.Region.Ylo) / g.CellH()))
	return ClampInt(ix, 0, g.NX-1), ClampInt(iy, 0, g.NY-1)
}

// CellRect returns the physical rectangle covered by cell (ix, iy).
func (g *Grid) CellRect(ix, iy int) Rect {
	w, h := g.CellW(), g.CellH()
	x := g.Region.Xlo + float64(ix)*w
	y := g.Region.Ylo + float64(iy)*h
	return Rect{x, y, x + w, y + h}
}

// CellCenter returns the physical centre of cell (ix, iy).
func (g *Grid) CellCenter(ix, iy int) Point { return g.CellRect(ix, iy).Center() }

// AddAt accumulates v into the cell containing physical point p.
func (g *Grid) AddAt(p Point, v float64) {
	ix, iy := g.CellOf(p)
	g.Add(ix, iy, v)
}

// SpreadRect distributes total over all grid cells overlapped by r,
// proportionally to the overlap area. Rectangles completely outside the
// grid region contribute nothing.
func (g *Grid) SpreadRect(r Rect, total float64) {
	spreadRectPair(g, nil, r, total, 0)
}

// SpreadRectPair distributes totalA over ga and totalB over gb for the
// cells overlapped by r, proportionally to the overlap area. Both grids
// must share the same geometry (it panics otherwise). The rectangle is
// decomposed into bins once instead of twice and the per-bin division is
// hoisted out of the loop, so deposits agree with two separate SpreadRect
// calls to within one rounding of the per-bin fraction (not bit-exactly).
// Callers spreading the horizontal and vertical demand of the same net
// bounding box use this to halve the per-net cost.
func SpreadRectPair(ga, gb *Grid, r Rect, totalA, totalB float64) {
	if ga.NX != gb.NX || ga.NY != gb.NY || ga.Region != gb.Region {
		panic("geom: SpreadRectPair grids differ in geometry")
	}
	spreadRectPair(ga, gb, r, totalA, totalB)
}

func spreadRectPair(g, gb *Grid, r Rect, total, totalB float64) {
	clipped := r.Intersect(g.Region)
	if clipped.Empty() || (total == 0 && (gb == nil || totalB == 0)) {
		return
	}
	// Bin the clipped corners inline with the cell extents hoisted; the
	// expressions match CellOf exactly, so the covered bin range is the
	// same one CellOf would pick.
	cw, ch := g.CellW(), g.CellH()
	ix0 := ClampInt(int(math.Floor((clipped.Xlo-g.Region.Xlo)/cw)), 0, g.NX-1)
	iy0 := ClampInt(int(math.Floor((clipped.Ylo-g.Region.Ylo)/ch)), 0, g.NY-1)
	ix1 := ClampInt(int(math.Floor((math.Nextafter(clipped.Xhi, clipped.Xlo)-g.Region.Xlo)/cw)), 0, g.NX-1)
	iy1 := ClampInt(int(math.Floor((math.Nextafter(clipped.Yhi, clipped.Ylo)-g.Region.Ylo)/ch)), 0, g.NY-1)
	area := clipped.Area()
	if area <= 0 {
		// Degenerate rectangle: deposit at the containing cell.
		if total != 0 {
			g.AddAt(clipped.Center(), total)
		}
		if gb != nil && totalB != 0 {
			gb.AddAt(clipped.Center(), totalB)
		}
		return
	}
	// The cell/rectangle overlap is separable, so the per-cell area is the
	// product of a per-column and a per-row extent. Computing the column
	// extents once per call instead of intersecting a full Rect per cell
	// keeps wide rectangles (net bounding boxes spanning most of the core)
	// cheap. wx*wy below multiplies the same two values W()*H() would, so
	// single-grid deposits are bit-identical to the per-cell Intersect form.
	var wxbuf [64]float64
	wxs := wxbuf[:0]
	if n := ix1 - ix0 + 1; n > len(wxbuf) {
		wxs = make([]float64, 0, n)
	}
	for ix := ix0; ix <= ix1; ix++ {
		xlo := g.Region.Xlo + float64(ix)*cw
		wx := math.Min(xlo+cw, clipped.Xhi) - math.Max(xlo, clipped.Xlo)
		if wx < 0 {
			wx = 0
		}
		wxs = append(wxs, wx)
	}
	// The pair path divides once per call instead of once per bin; it only
	// serves the congestion estimator, which has no bit-exact legacy
	// outputs to preserve. The single-grid path keeps the historical
	// total*ov/area ordering because the power and occupancy maps built
	// through it feed the thermal solver's pinned results.
	kA, kB := total/area, totalB/area
	for iy := iy0; iy <= iy1; iy++ {
		ylo := g.Region.Ylo + float64(iy)*ch
		wy := math.Min(ylo+ch, clipped.Yhi) - math.Max(ylo, clipped.Ylo)
		if wy <= 0 {
			continue
		}
		lo, hi := g.index(ix0, iy), g.index(ix1, iy)+1
		row := g.data[lo:hi]
		if gb == nil {
			for i, wx := range wxs {
				if ov := wx * wy; ov > 0 {
					row[i] += total * ov / area
				}
			}
			continue
		}
		rowB := gb.data[lo:hi]
		for i, wx := range wxs {
			ov := wx * wy
			if ov <= 0 {
				continue
			}
			row[i] += kA * ov
			rowB[i] += kB * ov
		}
	}
}

// Max returns the maximum value in the grid and its cell coordinates.
func (g *Grid) Max() (v float64, ix, iy int) {
	v = math.Inf(-1)
	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			if x := g.At(i, j); x > v {
				v, ix, iy = x, i, j
			}
		}
	}
	return v, ix, iy
}

// Min returns the minimum value in the grid and its cell coordinates.
func (g *Grid) Min() (v float64, ix, iy int) {
	v = math.Inf(1)
	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			if x := g.At(i, j); x < v {
				v, ix, iy = x, i, j
			}
		}
	}
	return v, ix, iy
}

// Sum returns the sum of all cell values.
func (g *Grid) Sum() float64 {
	s := 0.0
	for _, v := range g.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all cell values.
func (g *Grid) Mean() float64 { return g.Sum() / float64(len(g.data)) }

// Gradient returns the maximum absolute difference between any two
// 4-neighbouring cells; a simple spatial-gradient figure of merit.
func (g *Grid) Gradient() float64 {
	max := 0.0
	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			v := g.At(i, j)
			if i+1 < g.NX {
				if d := math.Abs(v - g.At(i+1, j)); d > max {
					max = d
				}
			}
			if j+1 < g.NY {
				if d := math.Abs(v - g.At(i, j+1)); d > max {
					max = d
				}
			}
		}
	}
	return max
}

// Scale multiplies every cell by k and returns the grid for chaining.
func (g *Grid) Scale(k float64) *Grid {
	for i := range g.data {
		g.data[i] *= k
	}
	return g
}

// String renders the grid as a whitespace-separated matrix with the
// top row (largest y) first, matching the orientation of the paper's plots.
func (g *Grid) String() string {
	var b strings.Builder
	for j := g.NY - 1; j >= 0; j-- {
		for i := 0; i < g.NX; i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.6g", g.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ASCIIHeatmap renders a coarse character heat-map of the grid using the
// provided palette (from coldest to hottest); handy for terminal inspection.
func (g *Grid) ASCIIHeatmap() string {
	palette := []byte(" .:-=+*#%@")
	lo, _, _ := g.Min()
	hi, _, _ := g.Max()
	span := hi - lo
	var b strings.Builder
	for j := g.NY - 1; j >= 0; j-- {
		for i := 0; i < g.NX; i++ {
			idx := 0
			if span > 0 {
				idx = int((g.At(i, j) - lo) / span * float64(len(palette)-1))
			}
			b.WriteByte(palette[ClampInt(idx, 0, len(palette)-1)])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

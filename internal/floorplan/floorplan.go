// Package floorplan derives the physical outline of the design: the core
// area implied by a target row-utilization factor, the standard-cell rows
// inside it, and the rectangular regions assigned to each logical unit.
//
// The utilization factor follows the paper's definition: total cell area
// divided by core area. Relaxing it ("Default" strategy in the paper) grows
// the core and spreads cells uniformly; the post-placement techniques
// instead allocate the extra whitespace only where the hotspots are.
package floorplan

import (
	"fmt"
	"math"
	"sort"

	"thermplace/internal/geom"
	"thermplace/internal/netlist"
)

// Row is one standard-cell placement row spanning the core horizontally.
type Row struct {
	// Index is the row number counted from the bottom of the core.
	Index int
	// Y is the y coordinate of the row's bottom edge in um.
	Y float64
	// X0 and X1 are the usable horizontal extent of the row in um.
	X0, X1 float64
}

// Width returns the usable width of the row.
func (r Row) Width() float64 { return r.X1 - r.X0 }

// Rect returns the row rectangle given the row height.
func (r Row) Rect(rowHeight float64) geom.Rect {
	return geom.Rect{Xlo: r.X0, Ylo: r.Y, Xhi: r.X1, Yhi: r.Y + rowHeight}
}

// Region is the rectangular placement region assigned to one logical unit.
type Region struct {
	Unit string
	Rect geom.Rect
	// CellArea is the total standard-cell area of the unit in um^2.
	CellArea float64
}

// Floorplan is the physical outline of a design.
type Floorplan struct {
	// Core is the placeable core area.
	Core geom.Rect
	// RowHeight and SiteWidth mirror the library technology values.
	RowHeight float64
	SiteWidth float64
	// Utilization is the target utilization the floorplan was built for.
	Utilization float64
	// AspectRatio is the target core aspect ratio (height / width) the
	// floorplan was built for, before row/site snapping. Derived floorplans
	// (place.Placement.Reflow) rebuild at a new utilization with this same
	// target, so they match a from-scratch floorplan bit for bit.
	AspectRatio float64
	// Rows are the placement rows from bottom to top.
	Rows []Row
	// Regions maps unit name to its assigned region.
	Regions map[string]*Region
}

// Config controls floorplan construction.
type Config struct {
	// Utilization is the target row-utilization factor (cell area / core
	// area), e.g. 0.85. Must be in (0, 1].
	Utilization float64
	// AspectRatio is core height / width; 1.0 gives a square die.
	AspectRatio float64
}

// DefaultConfig returns the configuration used by the experiments: a square
// core at 85% utilization, a typical high-density starting point.
func DefaultConfig() Config {
	return Config{Utilization: 0.85, AspectRatio: 1.0}
}

// New builds a floorplan for the design at the requested utilization.
// The core is sized so that totalCellArea / coreArea == cfg.Utilization,
// with the width snapped to placement sites and the height to whole rows.
// Each logical unit of the design receives a region whose area is
// proportional to its cell area, computed by recursive bisection so the
// units tile the core exactly.
func New(d *netlist.Design, cfg Config) (*Floorplan, error) {
	if !(cfg.Utilization > 0 && cfg.Utilization <= 1) { // also rejects NaN
		return nil, fmt.Errorf("floorplan: utilization %g out of range (0, 1]", cfg.Utilization)
	}
	if cfg.AspectRatio <= 0 {
		cfg.AspectRatio = 1.0
	}
	lib := d.Lib
	cellArea := d.TotalCellArea()
	if cellArea <= 0 {
		return nil, fmt.Errorf("floorplan: design %q has no standard cells", d.Name)
	}
	coreArea := cellArea / cfg.Utilization
	width := math.Sqrt(coreArea / cfg.AspectRatio)
	height := coreArea / width
	// Snap: height to whole rows (round up), width to whole sites so the
	// actual utilization is never above the request.
	nRows := int(math.Ceil(height / lib.RowHeight))
	if nRows < 1 {
		nRows = 1
	}
	height = float64(nRows) * lib.RowHeight
	width = lib.SnapToSite(coreArea / height)

	fp := &Floorplan{
		Core:        geom.Rect{Xlo: 0, Ylo: 0, Xhi: width, Yhi: height},
		RowHeight:   lib.RowHeight,
		SiteWidth:   lib.SiteWidth,
		Utilization: cfg.Utilization,
		AspectRatio: cfg.AspectRatio,
		Regions:     make(map[string]*Region),
	}
	fp.rebuildRows(nRows)

	// Assign unit regions by recursive bisection over cell area.
	units := d.Units()
	if len(units) > 0 {
		type unitArea struct {
			name string
			area float64
		}
		var ua []unitArea
		for _, u := range units {
			ua = append(ua, unitArea{u, d.UnitCellArea(u)})
		}
		untagged := d.UnitCellArea("")
		// Untagged glue logic is folded into the largest unit's region.
		if untagged > 0 && len(ua) > 0 {
			sort.Slice(ua, func(i, j int) bool { return ua[i].area > ua[j].area })
			ua[0].area += untagged
		}
		names := make([]string, len(ua))
		areas := make([]float64, len(ua))
		// Deterministic order: by name.
		sort.Slice(ua, func(i, j int) bool { return ua[i].name < ua[j].name })
		for i, u := range ua {
			names[i] = u.name
			areas[i] = u.area
		}
		rects := bisect(fp.Core, areas)
		for i, name := range names {
			fp.Regions[name] = &Region{Unit: name, Rect: rects[i], CellArea: areas[i]}
		}
	}
	return fp, nil
}

// rebuildRows regenerates the row list for the current core rectangle.
func (fp *Floorplan) rebuildRows(nRows int) {
	fp.Rows = fp.Rows[:0]
	for i := 0; i < nRows; i++ {
		fp.Rows = append(fp.Rows, Row{
			Index: i,
			Y:     fp.Core.Ylo + float64(i)*fp.RowHeight,
			X0:    fp.Core.Xlo,
			X1:    fp.Core.Xhi,
		})
	}
}

// NumRows returns the number of placement rows.
func (fp *Floorplan) NumRows() int { return len(fp.Rows) }

// CoreArea returns the core area in um^2.
func (fp *Floorplan) CoreArea() float64 { return fp.Core.Area() }

// RowAt returns the row whose vertical span contains y, or the nearest row
// when y lies outside the core.
func (fp *Floorplan) RowAt(y float64) *Row {
	if len(fp.Rows) == 0 {
		return nil
	}
	idx := int(math.Floor((y - fp.Core.Ylo) / fp.RowHeight))
	idx = geom.ClampInt(idx, 0, len(fp.Rows)-1)
	return &fp.Rows[idx]
}

// RegionOf returns the region of the unit, or nil when the unit is unknown.
func (fp *Floorplan) RegionOf(unit string) *Region { return fp.Regions[unit] }

// Clone returns a deep copy of the floorplan, so that post-placement
// transforms can stretch the core without affecting the original.
func (fp *Floorplan) Clone() *Floorplan {
	out := &Floorplan{
		Core:        fp.Core,
		RowHeight:   fp.RowHeight,
		SiteWidth:   fp.SiteWidth,
		Utilization: fp.Utilization,
		AspectRatio: fp.AspectRatio,
		Rows:        append([]Row(nil), fp.Rows...),
		Regions:     make(map[string]*Region, len(fp.Regions)),
	}
	for k, v := range fp.Regions {
		r := *v
		out.Regions[k] = &r
	}
	return out
}

// InsertRows grows the core vertically by count rows inserted starting at
// row index at (rows at and above shift up), renumbering and repositioning
// all rows. Regions overlapping the insertion point are stretched so they
// keep covering the same cells after the shift. This is the floorplan-level
// half of the paper's Empty Row Insertion.
func (fp *Floorplan) InsertRows(at, count int) error {
	if count <= 0 {
		return fmt.Errorf("floorplan: InsertRows count must be positive, got %d", count)
	}
	if at < 0 || at > len(fp.Rows) {
		return fmt.Errorf("floorplan: InsertRows index %d out of range [0, %d]", at, len(fp.Rows))
	}
	shift := float64(count) * fp.RowHeight
	yInsert := fp.Core.Ylo + float64(at)*fp.RowHeight
	fp.Core.Yhi += shift
	fp.rebuildRows(len(fp.Rows) + count)
	for _, reg := range fp.Regions {
		r := reg.Rect
		if r.Ylo >= yInsert {
			reg.Rect = r.Translate(0, shift)
		} else if r.Yhi > yInsert {
			reg.Rect = geom.Rect{Xlo: r.Xlo, Ylo: r.Ylo, Xhi: r.Xhi, Yhi: r.Yhi + shift}
		}
	}
	return nil
}

// bisect splits rect into len(areas) sub-rectangles whose areas are
// proportional to areas, by recursively splitting the item list into two
// halves of roughly equal total area and cutting the rectangle along its
// longer dimension.
func bisect(rect geom.Rect, areas []float64) []geom.Rect {
	out := make([]geom.Rect, len(areas))
	idx := make([]int, len(areas))
	for i := range idx {
		idx[i] = i
	}
	var recurse func(r geom.Rect, items []int)
	recurse = func(r geom.Rect, items []int) {
		if len(items) == 1 {
			out[items[0]] = r
			return
		}
		// Sort a copy by area descending to balance the split.
		sorted := append([]int(nil), items...)
		sort.Slice(sorted, func(i, j int) bool { return areas[sorted[i]] > areas[sorted[j]] })
		total := 0.0
		for _, i := range sorted {
			total += areas[i]
		}
		var left, right []int
		leftArea, rightArea := 0.0, 0.0
		for _, i := range sorted {
			if leftArea <= rightArea {
				left = append(left, i)
				leftArea += areas[i]
			} else {
				right = append(right, i)
				rightArea += areas[i]
			}
		}
		frac := 0.5
		if total > 0 {
			frac = leftArea / total
		}
		if r.W() >= r.H() {
			cut := r.Xlo + frac*r.W()
			recurse(geom.Rect{Xlo: r.Xlo, Ylo: r.Ylo, Xhi: cut, Yhi: r.Yhi}, left)
			recurse(geom.Rect{Xlo: cut, Ylo: r.Ylo, Xhi: r.Xhi, Yhi: r.Yhi}, right)
		} else {
			cut := r.Ylo + frac*r.H()
			recurse(geom.Rect{Xlo: r.Xlo, Ylo: r.Ylo, Xhi: r.Xhi, Yhi: cut}, left)
			recurse(geom.Rect{Xlo: r.Xlo, Ylo: cut, Xhi: r.Xhi, Yhi: r.Yhi}, right)
		}
	}
	if len(areas) > 0 {
		recurse(rect, idx)
	}
	return out
}

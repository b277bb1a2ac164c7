// Package congestion provides a probabilistic routing-congestion estimate
// for placed designs. The paper notes that empty-row insertion "increases
// the distance between rows of cells, thus reducing routing congestion in
// the hotspot regions"; this package quantifies that by-product.
//
// The model is the standard bounding-box one: every net's expected wiring is
// its half-perimeter wirelength distributed uniformly over the bins its
// bounding box overlaps, split into horizontal and vertical demand. Bin
// capacity comes from the number of routing tracks the bin offers (bin
// extent divided by track pitch times the number of routing layers per
// direction).
package congestion

import (
	"math"

	"thermplace/internal/geom"
	"thermplace/internal/place"
)

// Options configures the congestion estimate.
type Options struct {
	// NX, NY is the congestion-grid resolution. Zero selects 32 x 32.
	NX, NY int
	// TrackPitchUm is the routing track pitch in micrometres. Zero selects
	// 0.2 um (a typical 65 nm intermediate-layer pitch).
	TrackPitchUm float64
	// HLayers and VLayers are the number of horizontal and vertical routing
	// layers. Zero selects 3 each.
	HLayers, VLayers int
}

func (o Options) withDefaults() Options {
	if o.NX <= 0 {
		o.NX = 32
	}
	if o.NY <= 0 {
		o.NY = 32
	}
	if o.TrackPitchUm <= 0 {
		o.TrackPitchUm = 0.2
	}
	if o.HLayers <= 0 {
		o.HLayers = 3
	}
	if o.VLayers <= 0 {
		o.VLayers = 3
	}
	return o
}

// Report holds the congestion maps and summary statistics.
type Report struct {
	// HDemand and VDemand are the horizontal and vertical wiring demand per
	// bin in track-lengths (um of wire / um of bin extent).
	HDemand, VDemand *geom.Grid
	// HUtil and VUtil are demand divided by capacity per bin.
	HUtil, VUtil *geom.Grid
	// Utilization is the per-bin maximum of HUtil and VUtil.
	Utilization *geom.Grid
	// MaxUtilization and MeanUtilization summarize Utilization.
	MaxUtilization, MeanUtilization float64
	// Overflows counts bins whose utilization exceeds 1.
	Overflows int
	// TotalWirelength is the summed HPWL of all nets in um.
	TotalWirelength float64
}

// Estimate computes the congestion report for a placement.
func Estimate(p *place.Placement, opts Options) *Report {
	opts = opts.withDefaults()
	core := p.FP.Core
	rep := &Report{
		HDemand: geom.NewGrid(opts.NX, opts.NY, core),
		VDemand: geom.NewGrid(opts.NX, opts.NY, core),
	}

	// Degenerate boxes still occupy one bin line; give them a minimal
	// extent so the spreading below works.
	minExt := math.Min(core.W(), core.H()) / float64(opts.NX) / 4
	for _, net := range p.Design.Nets() {
		bbox := p.NetBBox(net)
		if bbox.Empty() && bbox.W() == 0 && bbox.H() == 0 {
			// Single-pin or unplaced net: no routing demand.
			continue
		}
		rep.TotalWirelength += bbox.HalfPerimeter()
		spread := bbox
		if spread.W() < minExt {
			spread.Xhi = spread.Xlo + minExt
		}
		if spread.H() < minExt {
			spread.Yhi = spread.Ylo + minExt
		}
		// Horizontal wire of length bbox.W spread over the box; vertical
		// wire of length bbox.H likewise, decomposed into bins once.
		geom.SpreadRectPair(rep.HDemand, rep.VDemand, spread, bbox.W(), bbox.H())
	}

	// Capacity per bin: tracks * bin extent in the routing direction.
	binW := rep.HDemand.CellW()
	binH := rep.HDemand.CellH()
	hTracks := binH / opts.TrackPitchUm * float64(opts.HLayers)
	vTracks := binW / opts.TrackPitchUm * float64(opts.VLayers)
	hCap := hTracks * binW // um of horizontal wire the bin can hold
	vCap := vTracks * binH

	rep.HUtil = rep.HDemand.Clone().Scale(1 / hCap)
	rep.VUtil = rep.VDemand.Clone().Scale(1 / vCap)
	rep.Utilization = geom.NewGrid(opts.NX, opts.NY, core)
	for iy := 0; iy < opts.NY; iy++ {
		for ix := 0; ix < opts.NX; ix++ {
			u := math.Max(rep.HUtil.At(ix, iy), rep.VUtil.At(ix, iy))
			rep.Utilization.Set(ix, iy, u)
			if u > 1 {
				rep.Overflows++
			}
		}
	}
	rep.MaxUtilization, _, _ = rep.Utilization.Max()
	rep.MeanUtilization = rep.Utilization.Mean()
	return rep
}

// MemoryBytes coarsely estimates the retained size of the report's grids.
// It feeds flow.Analysis.MemoryBytes, the accounting unit of the query
// server's result cache.
func (r *Report) MemoryBytes() int64 {
	n := int64(0)
	for _, g := range []*geom.Grid{r.HDemand, r.VDemand, r.HUtil, r.VUtil, r.Utilization} {
		if g != nil {
			n += 8 * int64(len(g.Values()))
		}
	}
	return n
}

// RegionOverflows counts the overflowing bins (utilization > 1) among the
// bins overlapping the given region; used to check that empty-row insertion
// does not worsen congestion inside the hotspot region it targets.
func (r *Report) RegionOverflows(region geom.Rect) int {
	n := 0
	for iy := 0; iy < r.Utilization.NY; iy++ {
		for ix := 0; ix < r.Utilization.NX; ix++ {
			if r.Utilization.At(ix, iy) > 1 && r.Utilization.CellRect(ix, iy).Intersects(region) {
				n++
			}
		}
	}
	return n
}

// RegionUtilization returns the mean congestion utilization of the bins
// overlapping the given region; used to compare the hotspot region before
// and after a transform.
func (r *Report) RegionUtilization(region geom.Rect) float64 {
	sum, n := 0.0, 0
	for iy := 0; iy < r.Utilization.NY; iy++ {
		for ix := 0; ix < r.Utilization.NX; ix++ {
			if r.Utilization.CellRect(ix, iy).Intersects(region) {
				sum += r.Utilization.At(ix, iy)
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Package hotspot localizes thermal hotspots on a temperature map: the
// groups of grid cells whose temperature rise is close to the peak. The
// post-placement techniques of the paper operate on exactly these regions —
// empty rows are inserted "in the area around a given hotspot" and wrappers
// are built around "the cells which are the source of the hotspot".
package hotspot

import (
	"sort"

	"thermplace/internal/geom"
)

// Hotspot is one connected region of near-peak temperature.
type Hotspot struct {
	// ID numbers hotspots from hottest (0) to coolest.
	ID int
	// Rect is the physical bounding box of the hotspot cells in um.
	Rect geom.Rect
	// Cells lists the (ix, iy) grid cells belonging to the hotspot.
	Cells [][2]int
	// PeakRise is the maximum temperature rise inside the hotspot (same
	// unit as the input map).
	PeakRise float64
	// MeanRise is the average rise over the hotspot cells.
	MeanRise float64
	// AreaUm2 is the physical area covered by the hotspot cells.
	AreaUm2 float64
}

// FracOfArea returns the hotspot area as a fraction of the given region
// (typically the core), used to classify small vs large hotspots.
func (h Hotspot) FracOfArea(region geom.Rect) float64 {
	if region.Area() <= 0 {
		return 0
	}
	return h.AreaUm2 / region.Area()
}

// Options tunes hotspot detection.
type Options struct {
	// ThresholdFrac positions the hot/cold threshold between the mean rise
	// and the peak rise: a cell is hot when
	//
	//	rise >= mean + ThresholdFrac * (peak - mean)
	//
	// Being relative to the spread rather than to the absolute peak keeps
	// detection meaningful on the fairly flat thermal maps that small,
	// well-cooled dies produce (the paper's own profiles vary by only a few
	// percent across the die). Zero means the default of 0.7.
	ThresholdFrac float64
	// MinCells drops connected components smaller than this many grid
	// cells. Zero means 1 (keep everything).
	MinCells int
}

// DefaultOptions returns the detection settings used by the experiments.
func DefaultOptions() Options { return Options{ThresholdFrac: 0.5, MinCells: 2} }

// Detect finds hotspots on a temperature-rise map (surface temperature minus
// ambient). It thresholds the map at mean + ThresholdFrac*(peak - mean),
// groups hot cells into 4-connected components, and returns them sorted
// hottest first. A map with no positive rise or no spatial variation yields
// no hotspots.
func Detect(rise *geom.Grid, opts Options) []Hotspot {
	if opts.ThresholdFrac <= 0 || opts.ThresholdFrac > 1 {
		opts.ThresholdFrac = 0.7
	}
	if opts.MinCells <= 0 {
		opts.MinCells = 1
	}
	peak, _, _ := rise.Max()
	if peak <= 0 {
		return nil
	}
	mean := rise.Mean()
	if peak-mean <= 0 {
		return nil
	}
	threshold := mean + opts.ThresholdFrac*(peak-mean)

	hot := func(ix, iy int) bool { return rise.At(ix, iy) >= threshold }
	visited := make([]bool, rise.NX*rise.NY)
	idx := func(ix, iy int) int { return iy*rise.NX + ix }

	var spots []Hotspot
	for iy := 0; iy < rise.NY; iy++ {
		for ix := 0; ix < rise.NX; ix++ {
			if visited[idx(ix, iy)] || !hot(ix, iy) {
				continue
			}
			// Flood fill the connected component.
			var cells [][2]int
			queue := [][2]int{{ix, iy}}
			visited[idx(ix, iy)] = true
			for len(queue) > 0 {
				c := queue[0]
				queue = queue[1:]
				cells = append(cells, c)
				for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
					nx, ny := c[0]+d[0], c[1]+d[1]
					if nx < 0 || nx >= rise.NX || ny < 0 || ny >= rise.NY {
						continue
					}
					if !visited[idx(nx, ny)] && hot(nx, ny) {
						visited[idx(nx, ny)] = true
						queue = append(queue, [2]int{nx, ny})
					}
				}
			}
			if len(cells) < opts.MinCells {
				continue
			}
			spots = append(spots, makeHotspot(rise, cells))
		}
	}
	sort.Slice(spots, func(i, j int) bool {
		if spots[i].PeakRise != spots[j].PeakRise {
			return spots[i].PeakRise > spots[j].PeakRise
		}
		return spots[i].AreaUm2 > spots[j].AreaUm2
	})
	for i := range spots {
		spots[i].ID = i
	}
	return spots
}

func makeHotspot(rise *geom.Grid, cells [][2]int) Hotspot {
	h := Hotspot{Cells: cells}
	var bbox geom.Rect
	sum := 0.0
	for i, c := range cells {
		r := rise.CellRect(c[0], c[1])
		if i == 0 {
			bbox = r
		} else {
			bbox = bbox.Union(r)
		}
		v := rise.At(c[0], c[1])
		sum += v
		if v > h.PeakRise {
			h.PeakRise = v
		}
		h.AreaUm2 += r.Area()
	}
	h.Rect = bbox
	h.MeanRise = sum / float64(len(cells))
	return h
}

// MergedRect returns the union bounding box of all hotspots; useful when a
// single transformation must cover every hot region at once.
func MergedRect(spots []Hotspot) geom.Rect {
	var out geom.Rect
	for _, h := range spots {
		out = out.Union(h.Rect)
	}
	return out
}

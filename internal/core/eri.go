package core

import (
	"fmt"
	"sort"

	"thermplace/internal/floorplan"
	"thermplace/internal/hotspot"
	"thermplace/internal/place"
)

// ERIOptions tunes the Empty Row Insertion transform.
type ERIOptions struct {
	// Rows is the total number of empty rows to insert. It must be positive.
	Rows int
	// Interleave controls the insertion pattern inside the hotspot row
	// span: true (the paper's scheme, and the default used when the options
	// come from DefaultERIOptions) spreads the empty rows so that populated
	// and empty rows alternate as evenly as possible; false inserts them as
	// one contiguous block at the centre of the hotspot, which is the
	// ablation variant benchmarked in bench_test.go.
	Interleave bool
}

// DefaultERIOptions returns the paper's interleaved scheme with the given
// row count.
func DefaultERIOptions(rows int) ERIOptions { return ERIOptions{Rows: rows, Interleave: true} }

// EmptyRowInsertionDelta applies the paper's first technique: empty layout
// rows are inserted in proximity of the hotspots, the rows above shift
// upward, the core grows by Rows*rowHeight, and the freed whitespace is
// filled with dummy cells. The cells themselves keep their horizontal
// positions, so the disturbance to the original placement (and hence the
// timing overhead) is minimal.
//
// The row budget is divided between the hotspots proportionally to the
// number of placement rows each hotspot spans. The transform never modifies
// its input; it returns a new placement with its own stretched floorplan,
// and the place.Delta between the input and the result — the cells the row
// shift displaced (plus anything the legalizer touched), their old and new
// rows, and the nets those moves dirtied. The delta is what lets the sweep
// re-evaluate only the affected part of the power report for an ERI point.
func EmptyRowInsertionDelta(p *place.Placement, spots []hotspot.Hotspot, opts ERIOptions) (*place.Placement, *place.Delta, error) {
	out := p.Clone()
	insertions, err := eriInsertionRows(out.FP, spots, opts)
	if err != nil {
		return nil, nil, err
	}
	out.BeginDelta()
	// Stretch the floorplan and shift every cell up by one row height per
	// insertion at or below its original row.
	if err := out.InsertEmptyRows(insertions); err != nil {
		return nil, nil, fmt.Errorf("core: ERI: %w", err)
	}
	place.Legalize(out)
	place.InsertFillers(out)
	return out, out.EndDelta(), nil
}

// eriInsertionRows computes where EmptyRowInsertionDelta inserts its empty
// rows: the sorted original row indices (an insertion at index k means "a
// new empty row appears below original row k", repeats allowed). It is the
// geometry half of the transform, shared with the adaptive sweep's
// coarse-fidelity estimator, which stretches the baseline power map through
// exactly these insertion points without building the placement.
func eriInsertionRows(fp *floorplan.Floorplan, spots []hotspot.Hotspot, opts ERIOptions) ([]int, error) {
	if opts.Rows <= 0 {
		return nil, fmt.Errorf("core: ERI needs a positive row count, got %d", opts.Rows)
	}
	if len(spots) == 0 {
		return nil, fmt.Errorf("core: ERI needs at least one hotspot")
	}

	// Row span of each hotspot in the original floorplan.
	type span struct{ lo, hi int }
	spans := make([]span, 0, len(spots))
	totalRows := 0
	for _, h := range spots {
		lo := fp.RowAt(h.Rect.Ylo).Index
		hi := fp.RowAt(h.Rect.Yhi - 1e-9).Index
		if hi < lo {
			lo, hi = hi, lo
		}
		spans = append(spans, span{lo, hi})
		totalRows += hi - lo + 1
	}

	// Distribute the row budget over the hotspots proportionally to their
	// row spans (larger hotspots receive more empty rows).
	budget := make([]int, len(spans))
	assigned := 0
	for i, s := range spans {
		share := opts.Rows * (s.hi - s.lo + 1) / totalRows
		budget[i] = share
		assigned += share
	}
	for i := 0; assigned < opts.Rows; i = (i + 1) % len(budget) {
		budget[i]++
		assigned++
	}

	// Compute the insertion points.
	var insertions []int
	for i, s := range spans {
		n := budget[i]
		if n == 0 {
			continue
		}
		spanRows := s.hi - s.lo + 1
		if opts.Interleave {
			for k := 0; k < n; k++ {
				// Even spread across the span; repeats are fine (two empty
				// rows below the same populated row).
				pos := s.lo + (k*spanRows+spanRows/2)/n
				if pos > s.hi+1 {
					pos = s.hi + 1
				}
				insertions = append(insertions, pos)
			}
		} else {
			mid := (s.lo + s.hi + 1) / 2
			for k := 0; k < n; k++ {
				insertions = append(insertions, mid)
			}
		}
	}
	sort.Ints(insertions)
	return insertions, nil
}

// AreaOverheadForRows returns the fractional core-area overhead caused by
// inserting the given number of empty rows into the placement's floorplan.
func AreaOverheadForRows(p *place.Placement, rows int) float64 {
	base := p.FP.CoreArea()
	extra := float64(rows) * p.FP.RowHeight * p.FP.Core.W()
	return extra / base
}

// RowsForAreaOverhead returns the number of empty rows that produces
// approximately the requested fractional area overhead (at least 1).
func RowsForAreaOverhead(p *place.Placement, overhead float64) int {
	perRow := p.FP.RowHeight * p.FP.Core.W() / p.FP.CoreArea()
	rows := int(overhead/perRow + 0.5)
	if rows < 1 {
		rows = 1
	}
	return rows
}

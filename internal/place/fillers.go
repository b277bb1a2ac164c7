package place

// InsertFillers fills every gap between placed cells (and between cells and
// the row ends) with the widest filler masters that fit, replacing any
// previously recorded fillers. Filler cells consume no power; they exist to
// keep the power/ground rails continuous across the whitespace the
// temperature-reduction techniques allocate, exactly as described in the
// paper, and to make whitespace accounting explicit.
//
// It returns the total filler area inserted in um^2.
func InsertFillers(p *Placement) float64 {
	fp := p.FP
	fillers := p.Design.Lib.Fillers()
	p.Fillers = p.Fillers[:0]
	if len(fillers) == 0 {
		return 0
	}
	minWidth := fillers[len(fillers)-1].Width
	totalArea := 0.0

	for row := 0; row < fp.NumRows(); row++ {
		r := fp.Rows[row]
		cursor := r.X0
		fillGap := func(from, to float64) {
			gap := to - from
			x := from
			for gap >= minWidth-1e-9 {
				placed := false
				for _, f := range fillers {
					if f.Width <= gap+1e-9 {
						p.Fillers = append(p.Fillers, Filler{Master: f, X: x, Row: row})
						totalArea += f.Width * fp.RowHeight
						x += f.Width
						gap -= f.Width
						placed = true
						break
					}
				}
				if !placed {
					break
				}
			}
		}
		// The bucket is already sorted by (X, name); re-sorting it with an
		// X-only comparator used to reorder equal-X entries arbitrarily and
		// made the filler list non-deterministic.
		for _, ord := range p.rowBucket(row) {
			l := p.locs[ord]
			if l.X > cursor {
				fillGap(cursor, l.X)
			}
			end := l.X + p.insts[ord].Master.Width
			if end > cursor {
				cursor = end
			}
		}
		if cursor < r.X1 {
			fillGap(cursor, r.X1)
		}
	}
	return totalArea
}

// FillerArea returns the total area currently occupied by filler cells.
func (p *Placement) FillerArea() float64 {
	total := 0.0
	for _, f := range p.Fillers {
		total += f.Master.Width * p.FP.RowHeight
	}
	return total
}

package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"thermplace/internal/fault"
	"thermplace/internal/floorplan"
	"thermplace/internal/flow"
	"thermplace/internal/geom"
	"thermplace/internal/hotspot"
	"thermplace/internal/thermal"
)

// AdaptiveOptions configures the two-phase multi-fidelity sweep
// (SweepOptions.Adaptive). Phase 1 enumerates a densified candidate grid —
// the base overhead axis refined GridScale times, crossed with the Aspects
// axis — and scores every candidate with a cheap coarse-fidelity estimate:
// no placement is built; the baseline power map is transformed
// geometrically into the candidate's floorplan and solved on a thermal grid
// downsampled by CoarseFactor. The coarse model's bias is systematic and
// nearly linear in area overhead, so the estimates are calibrated with a
// two-point scheme: the exact/coarse rise ratio is interpolated linearly in
// area between the baseline (area 0) and one exact anchor measurement per
// estimate family (the largest-area Default and ERI candidates, whose exact
// measurements are reused as sweep points). Phase 2 re-runs only the
// estimated Pareto front (plus every candidate within Margin of it) through
// the classic sweep's exact fan-out (Evaluator); the sweep's points are
// those exact measurements, bit-identical to an exhaustive run's
// measurements of the same candidates.
type AdaptiveOptions struct {
	// GridScale densifies the overhead axis: the candidate grid spans the
	// base Overheads range with len(Overheads)*GridScale uniformly spaced
	// points. 0 or 1 keeps the base overheads verbatim; negative values and
	// values above MaxGridScale are rejected.
	GridScale int
	// Margin widens the survivor set around the estimated front. Candidate
	// s is triaged away only when some candidate q dominates it by more
	// than the margin in the estimated objective: q.area <= s.area and
	// q.estRise <= s.estRise - Margin*S, S being the rise range over the
	// candidates (with at least one strict inequality, so duplicates keep
	// each other alive). The margin applies to the rise axis only — area
	// overhead is computed exactly from candidate geometry and carries no
	// estimation error to absorb. Margin 0 keeps exactly the estimated
	// front; the true exact front is preserved whenever every pair's
	// differential rise-estimation error |err_s - err_q| stays below
	// Margin*S. +Inf disables triage entirely — every candidate survives
	// to the exact phase, the exhaustive reference mode the harness
	// compares against.
	// On the paper design (both paper workloads, Figure 6 overheads, seeds
	// 1-3) 0.25 kept the exhaustive front exactly at grid scales 3, 4 and 8,
	// keeping 64-72 of 72 candidates at scale 4 and 46-54 of 54 at scale 3
	// with CoarseFactor 2; 0.1 is unsafe: at scale 8 it lost 6 of 39 front
	// points on the concentrated workload.
	Margin float64
	// CoarseFactor is the thermal grid downsampling factor of the estimate
	// phase: it solves a ceil(NX/f) x ceil(NY/f) grid (never below 2x2)
	// over the same die, and rebins the baseline power map onto it by cell
	// centre, conserving power. When f divides NX and NY every coarse cell
	// sums exactly f x f fine cells; otherwise a fine cell that straddles
	// two coarse cells lands wholly in the one holding its centre, which
	// moves the estimates (and so possibly the triage) but never a measured
	// point. 0 selects 4; values below 2 are otherwise rejected (a factor of
	// 1 would make "triage" as expensive as the exact phase).
	CoarseFactor int
	// Aspects is the core aspect-ratio axis of the candidate grid, applied
	// to Default and HW candidates (ERI stretches the baseline placement,
	// whose aspect is fixed). Empty means the flow's configured aspect
	// only.
	Aspects []float64

	// InjectEstRiseBiasC is a fault-injection hook for the bench harness:
	// it biases the estimated peak rise of every odd-indexed candidate by
	// the given amount (in C) before triage, deterministically corrupting
	// the coarse phase so the exactness check on the adaptive front must
	// fail. Zero injects nothing.
	InjectEstRiseBiasC float64
}

// MaxGridScale bounds AdaptiveOptions.GridScale: enumeration allocates in
// proportion to it without checking a context, so a larger scale is an
// error up front rather than an out-of-memory crash.
const MaxGridScale = 16

// TriageStats records what the coarse phase of an adaptive sweep did.
type TriageStats struct {
	// Candidates is the size of the enumerated candidate grid; Survivors of
	// them passed the margin triage (including estimate-less candidates
	// that survive conservatively, e.g. an HW candidate whose coarse rise
	// map shows no hotspot to wrap) and reached the exact phase.
	Candidates int
	Survivors  int
	// CoarseSolves counts the downsampled thermal solves of phase 1
	// (including the coarse baseline calibration solve); ExactSolves the
	// full-fidelity pipeline runs of phase 2.
	CoarseSolves int
	ExactSolves  int
	// ExtraParents counts triaged-away Default candidates that were
	// measured exactly anyway because a surviving HW candidate needed its
	// Default placement as lineage parent; they are not reported as points.
	ExtraParents int
	// Anchors counts the exact calibration measurements of phase 1 (at most
	// one per estimate family). Anchor points always appear in the result —
	// they are exact measurements already paid for.
	Anchors int
	// Margin echoes the dominance margin the triage ran with.
	Margin float64
	// ErrHist is the histogram of relative est-vs-exact peak-rise error
	// over the surviving candidates: <1%, <2%, <5%, <10%, >=10%.
	ErrHist [5]int
	// MaxEstErrC is the largest absolute est-vs-exact peak-rise difference
	// observed over the surviving candidates, in C. Triaged candidates are
	// never measured exactly, so it cannot reveal a lost front point.
	MaxEstErrC float64
}

// addErr records one est-vs-exact comparison into the histogram.
func (ts *TriageStats) addErr(estRise, exactRise float64) {
	err := math.Abs(estRise - exactRise)
	if err > ts.MaxEstErrC {
		ts.MaxEstErrC = err
	}
	rel := 1.0
	if exactRise > 0 {
		rel = err / exactRise
	}
	switch {
	case rel < 0.01:
		ts.ErrHist[0]++
	case rel < 0.02:
		ts.ErrHist[1]++
	case rel < 0.05:
		ts.ErrHist[2]++
	case rel < 0.10:
		ts.ErrHist[3]++
	default:
		ts.ErrHist[4]++
	}
}

// adaptiveOverheads densifies the base overhead axis to len(base)*scale
// uniformly spaced points spanning the base range.
func adaptiveOverheads(base []float64, scale int) []float64 {
	if scale <= 1 || len(base) == 0 {
		return base
	}
	lo, hi := base[0], base[0]
	for _, v := range base {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	n := len(base) * scale
	if n < 2 || lo == hi {
		return base
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// coarseDims returns the lateral resolution of the estimate phase's thermal
// grid for a full nx x ny grid and downsampling factor f: ceil(nx/f) x
// ceil(ny/f), never below 2x2.
func coarseDims(nx, ny, f int) (cnx, cny int) {
	return max((nx+f-1)/f, 2), max((ny+f-1)/f, 2)
}

// rebinInto maps every cell of src into dst by relative position (src's
// region is stretched onto dst's region), conserving total power. It is the
// placement-free model of a utilization/aspect reflow: cells keep their
// relative coordinates while the die stretches around them.
func rebinInto(dst, src *geom.Grid) {
	sx := dst.Region.W() / src.Region.W()
	sy := dst.Region.H() / src.Region.H()
	for iy := 0; iy < src.NY; iy++ {
		for ix := 0; ix < src.NX; ix++ {
			v := src.At(ix, iy)
			if v == 0 {
				continue
			}
			c := src.CellCenter(ix, iy)
			dst.AddAt(geom.Point{
				X: dst.Region.Xlo + (c.X-src.Region.Xlo)*sx,
				Y: dst.Region.Ylo + (c.Y-src.Region.Ylo)*sy,
			}, v)
		}
	}
}

// sweepAdaptive runs the two-phase multi-fidelity sweep. See
// AdaptiveOptions for the scheme and SweepEfficiencyCtx for the contract it
// shares with the classic sweep (cancellation, provenance, determinism
// across worker counts).
func sweepAdaptive(ctx context.Context, ev *Evaluator, opts SweepOptions) (*SweepResult, error) {
	af := *opts.Adaptive
	if af.CoarseFactor == 0 {
		af.CoarseFactor = 4
	}
	if af.CoarseFactor < 2 {
		return nil, fmt.Errorf("core: adaptive sweep needs CoarseFactor >= 2, got %d", af.CoarseFactor)
	}
	if math.IsNaN(af.Margin) || af.Margin < 0 {
		return nil, fmt.Errorf("core: adaptive sweep needs a non-negative Margin, got %g", af.Margin)
	}
	if af.GridScale < 0 || af.GridScale > MaxGridScale {
		return nil, fmt.Errorf("core: adaptive sweep needs GridScale in [0, %d], got %d", MaxGridScale, af.GridScale)
	}
	f, baseline := ev.flow, ev.baseline
	baseArea := baseline.Placement.FP.CoreArea()
	stats := &TriageStats{Margin: af.Margin}
	result := &SweepResult{Baseline: baseline, BaselineUtilization: ev.baseUtil, Triage: stats}

	// ---- Candidate enumeration. ----
	overheads := adaptiveOverheads(opts.Overheads, af.GridScale)
	aspects := af.Aspects
	if len(aspects) == 0 {
		aspects = []float64{f.Config.AspectRatio}
	}
	var rowCounts []int
	if wantStrategy(opts, StrategyERI) {
		rowCounts = opts.ERIRows
		if len(rowCounts) == 0 {
			// Row granularity quantizes the overhead axis, so consecutive
			// densified overheads often map to the same row count; dedupe.
			for _, ov := range overheads {
				r := RowsForAreaOverhead(baseline.Placement, ov)
				if n := len(rowCounts); n == 0 || rowCounts[n-1] != r {
					rowCounts = append(rowCounts, r)
				}
			}
		}
	}
	s := newSweep(ev, opts, overheads, aspects, rowCounts, f.Config.AspectRatio)
	stats.Candidates = len(s.cands)

	// ---- Phase 1: coarse-fidelity estimates, placement-free. ----
	ccfg := f.Config.Thermal
	ccfg.NX, ccfg.NY = coarseDims(ccfg.NX, ccfg.NY, af.CoarseFactor)
	cnx, cny := ccfg.NX, ccfg.NY
	pool := thermal.NewPool(ccfg)
	var coarseSolves atomic.Int64
	// coarseSolve runs one solve on a pooled coarse solver. Only the
	// calibration solve hands its field back (keep), so that field is the
	// pool's default seed and every candidate solve starts from it: the
	// estimates do not depend on worker scheduling.
	coarseSolve := func(tctx context.Context, pm *geom.Grid, keep bool) (*thermal.Result, error) {
		cs, err := pool.Get(nil)
		if err != nil {
			return nil, err
		}
		res, err := cs.SolveCtx(tctx, pm)
		var field []float64
		if err == nil && keep {
			field = cs.State()
		}
		pool.Put(cs, field)
		if err != nil {
			return nil, err
		}
		coarseSolves.Add(1)
		return res, nil
	}

	// Calibration solve: the baseline power map, rebinned onto the coarse
	// grid, through the coarse model. The exact/coarse baseline rise ratio
	// anchors the calibration at area 0.
	basePM := baseline.PowerMap
	cbasePM := geom.NewGrid(cnx, cny, basePM.Region)
	rebinInto(cbasePM, basePM)
	cbase, err := coarseSolve(ctx, cbasePM, true)
	if err != nil {
		return nil, fmt.Errorf("core: adaptive coarse baseline: %w", err)
	}
	if cbase.PeakRise <= 0 {
		return nil, fmt.Errorf("core: adaptive coarse baseline lost the temperature rise")
	}

	baseFP := baseline.Placement.FP

	// estDefault builds the coarse estimate of a Default candidate: the
	// exact candidate floorplan (bit-identical to what PlaceAtAspect will
	// build), the baseline power map rebinned into it, one coarse solve.
	// It returns the coarse rise map for the stacked HW estimate.
	estDefault := func(tctx context.Context, c *candidate) (*geom.Grid, *thermal.Result, error) {
		fp, err := floorplan.New(f.Design, floorplan.Config{
			Utilization: c.pt.Utilization, AspectRatio: c.pt.Aspect,
		})
		if err != nil {
			return nil, nil, err
		}
		pm := geom.NewGrid(cnx, cny, fp.Core)
		rebinInto(pm, basePM)
		res, err := coarseSolve(tctx, pm, false)
		if err != nil {
			return nil, nil, err
		}
		c.estArea = fp.CoreArea()/baseArea - 1
		c.rawRise = res.PeakRise
		c.estValid = true
		return pm, res, nil
	}

	// estHW stacks the wrapper model on a Default estimate: hotspots are
	// detected on the coarse rise map, and each hotspot's power is spread
	// over the region the wrapper would redistribute its hot cells into
	// (DefaultWrapperOptions' ring and expansion). The core outline (and
	// hence the area) is the parent's.
	estHW := func(tctx context.Context, c, parent *candidate, defPM *geom.Grid, defRes *thermal.Result) error {
		spots := hotspot.Detect(defRes.RiseMap(), wrapperDetection)
		if len(spots) == 0 {
			// No estimate: the exact path may still find (and wrap) tighter
			// hotspots, so the candidate survives conservatively rather
			// than being triaged on a guess.
			return nil
		}
		core := defPM.Region
		ring := 2 * baseFP.RowHeight
		expand := geom.Clamp(1/c.pt.Utilization, 1.2, 3.0)
		pm := defPM.Clone()
		moved := false
		for _, h := range spots {
			hotBox, _, inner, ok := wrapperRegions(h.Rect, core, baseFP, expand, ring)
			if !ok {
				continue
			}
			// Move the power of the cells whose centers sit in the hotspot
			// box onto the wrapper's inner region, uniformly — the coarse
			// model of "spread the hot cells over the wrapped region".
			w := 0.0
			for iy := 0; iy < pm.NY; iy++ {
				for ix := 0; ix < pm.NX; ix++ {
					if hotBox.Contains(pm.CellCenter(ix, iy)) {
						w += pm.At(ix, iy)
						pm.Set(ix, iy, 0)
					}
				}
			}
			if w > 0 {
				pm.SpreadRect(inner, w)
				moved = true
			}
		}
		if !moved {
			// Wrapper model had no effect (every hotspot too small to
			// wrap): survive conservatively, like the no-spots case.
			return nil
		}
		res, err := coarseSolve(tctx, pm, false)
		if err != nil {
			return err
		}
		c.estArea = parent.estArea
		c.rawRise = res.PeakRise
		c.estValid = true
		return nil
	}

	provenance := func(err error, c *candidate) error {
		return fault.WithProvenance(fmt.Errorf("core: adaptive estimate, %v: %w", c.pt, err),
			f.Design.Name, string(c.pt.Strategy), c.slot)
	}

	var estTasks []func(context.Context) error
	for ai, cells := range s.defaults {
		for i, d := range cells {
			estTasks = append(estTasks, func(tctx context.Context) error {
				defPM, defRes, err := estDefault(tctx, d)
				if err != nil {
					return provenance(err, d)
				}
				if s.hws == nil {
					return nil
				}
				h := s.hws[ai][i]
				if err := estHW(tctx, h, d, defPM, defRes); err != nil {
					return provenance(err, h)
				}
				return nil
			})
		}
	}
	for _, c := range s.eris {
		estTasks = append(estTasks, func(tctx context.Context) error {
			insertions, err := eriInsertionRows(baseFP, baseline.Hotspots, DefaultERIOptions(c.pt.Rows))
			if err != nil {
				return provenance(err, c)
			}
			// Stretch the baseline power map through the insertion points:
			// each cell shifts up by one row height per empty row inserted
			// at or below its row — the same piecewise shift the exact
			// transform applies to the cells themselves.
			region := basePM.Region
			region.Yhi += float64(c.pt.Rows) * baseFP.RowHeight
			pm := geom.NewGrid(cnx, cny, region)
			for iy := 0; iy < basePM.NY; iy++ {
				for ix := 0; ix < basePM.NX; ix++ {
					v := basePM.At(ix, iy)
					if v == 0 {
						continue
					}
					ct := basePM.CellCenter(ix, iy)
					row := baseFP.RowAt(ct.Y).Index
					shift := countLE(insertions, row)
					pm.AddAt(geom.Point{X: ct.X, Y: ct.Y + float64(shift)*baseFP.RowHeight}, v)
				}
			}
			res, err := coarseSolve(tctx, pm, false)
			if err != nil {
				return provenance(err, c)
			}
			c.estArea = AreaOverheadForRows(baseline.Placement, c.pt.Rows)
			c.rawRise = res.PeakRise
			c.estValid = true
			return nil
		})
	}
	if err := runTasks(ctx, estTasks, opts.Workers); err != nil {
		return nil, err
	}

	// ---- Two-point calibration. The downsampled model's bias is
	// systematic and nearly linear in area overhead, with a different slope
	// per estimate family (the rebin, ERI-stretch and wrapper-spread
	// transforms distort the power map differently). One exact anchor per
	// family — the largest-area candidate, where the bias is largest —
	// fixes the slope; the coarse baseline fixes the intercept. Anchors are
	// measured by the same evaluator as phase 2, so their measurements are
	// reused verbatim as sweep points (and as HW lineage parents): when the
	// anchors sit on the true front, as the largest temperature reducers
	// usually do, the calibration is free.
	rb := baseline.Thermal.PeakRise / cbase.PeakRise
	lerpRatio := func(anchor *candidate, exactRise float64) func(float64) float64 {
		if anchor == nil || !anchor.estValid || anchor.rawRise <= 0 || anchor.estArea <= 0 {
			return func(float64) float64 { return rb }
		}
		r1 := exactRise / anchor.rawRise
		a1 := anchor.estArea
		return func(a float64) float64 { return rb + (r1-rb)*(a/a1) }
	}
	calDefault := func(float64) float64 { return rb }
	calERI := calDefault
	var d0, e0 *candidate
	if s.defaults != nil {
		di := 0
		for i, ov := range overheads {
			if ov > overheads[di] {
				di = i
			}
		}
		if d := s.defaults[0][di]; d.estValid {
			d0 = d
		}
	}
	if len(s.eris) > 0 {
		e := s.eris[0]
		for _, c := range s.eris[1:] {
			if c.pt.Rows > e.pt.Rows {
				e = c
			}
		}
		if e.estValid {
			e0 = e
		}
	}
	anchorDef, err := s.anchors(ctx, d0, e0)
	if err != nil {
		return nil, err
	}
	if d0 != nil {
		d0.anchored = true
		calDefault = lerpRatio(d0, anchorDef.Thermal.PeakRise)
		stats.Anchors++
	}
	if e0 != nil {
		e0.anchored = true
		calERI = lerpRatio(e0, e0.point.PeakRise)
		stats.Anchors++
	}
	for _, c := range s.cands {
		if !c.estValid {
			continue
		}
		// HW estimates ride the Default calibration: they are built on the
		// same rebinned power map, and the wrapper spread does not change
		// the downsampling bias profile enough to warrant a third anchor.
		if c.pt.Strategy == StrategyERI {
			c.estRise = c.rawRise * calERI(c.estArea)
		} else {
			c.estRise = c.rawRise * calDefault(c.estArea)
		}
	}

	// Deterministic fault injection for the harness' negative check: bias
	// every odd-indexed estimate so the triage provably drops true-front
	// points.
	if af.InjectEstRiseBiasC != 0 {
		for _, c := range s.cands {
			if c.estValid && c.index%2 == 1 {
				c.estRise += af.InjectEstRiseBiasC
			}
		}
	}

	// ---- Triage: margin-dominance on (area overhead, estimated rise). ----
	triage(s.cands, af.Margin)
	for _, c := range s.cands {
		if c.anchored {
			// Anchor measurements are already in hand; dropping them would
			// discard paid-for exact data.
			c.survives = true
		}
		if c.survives {
			stats.Survivors++
		}
	}
	stats.CoarseSolves = int(coarseSolves.Load())

	// ---- Phase 2: exact refinement of the survivors on the classic
	// sweep's fan-out. ----
	if stats.ExtraParents, err = s.measure(ctx, anchorDef); err != nil {
		return nil, err
	}
	stats.ExactSolves = int(s.solves.Load())

	// Assemble in candidate-enumeration order (Default, ERI, HW — the
	// classic sweep's grouping) and fold the est-vs-exact errors into the
	// histogram.
	for _, c := range s.cands {
		if c.point != nil && c.estValid {
			stats.addErr(c.estRise, c.point.PeakRise)
		}
	}
	result.Points = s.points()
	return result, nil
}

// anchors measures the calibration anchors exactly: d0, the largest-overhead
// Default candidate, and e0, the largest ERI candidate (nil when absent).
// The two measurements are independent, so they run side by side on the
// sweep's workers; runTasks keeps the lowest-index error (Default's), and
// one worker measures them in this order. It returns d0's analysis, the HW
// parent of its cell.
func (s *sweep) anchors(ctx context.Context, d0, e0 *candidate) (*flow.Analysis, error) {
	var anchorDef *flow.Analysis
	var tasks []func(context.Context) error
	if d0 != nil {
		tasks = append(tasks, func(tctx context.Context) error {
			var err error
			anchorDef, err = s.exact(tctx, d0, nil, wantStrategy(s.opts, StrategyDefault))
			return err
		})
	}
	if e0 != nil {
		tasks = append(tasks, func(tctx context.Context) error {
			_, err := s.exact(tctx, e0, nil, true)
			return err
		})
	}
	if err := runTasks(ctx, tasks, s.opts.Workers); err != nil {
		return nil, err
	}
	return anchorDef, nil
}

// countLE returns how many values of the sorted slice are <= x.
func countLE(sorted []int, x int) int {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// triage marks the surviving candidates: a candidate is dropped only when
// another candidate dominates its estimate with at least margin*range to
// spare on the estimated-rise axis (area is exact, so plain dominance
// applies there; the strict-improvement requirement keeps duplicates
// alive). Estimate-less candidates always survive. A margin of +Inf
// disables triage.
func triage(cands []*candidate, margin float64) {
	if math.IsInf(margin, 1) {
		for _, c := range cands {
			c.survives = true
		}
		return
	}
	// Rise range over the valid estimates.
	first := true
	var loR, hiR float64
	for _, c := range cands {
		if !c.estValid {
			continue
		}
		if first {
			loR, hiR = c.estRise, c.estRise
			first = false
			continue
		}
		loR, hiR = math.Min(loR, c.estRise), math.Max(hiR, c.estRise)
	}
	mR := margin * (hiR - loR)
	for _, s := range cands {
		if !s.estValid {
			s.survives = true
			continue
		}
		s.survives = true
		for _, q := range cands {
			if q == s || !q.estValid {
				continue
			}
			if q.estArea <= s.estArea && q.estRise <= s.estRise-mR &&
				(q.estArea < s.estArea || q.estRise < s.estRise) {
				s.survives = false
				break
			}
		}
	}
}

package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"thermplace/internal/core"
	"thermplace/internal/flow"
	"thermplace/internal/geom"
)

// Kind identifies a query type.
type Kind string

const (
	// KindAnalyze measures the design at one placement utilization.
	KindAnalyze Kind = "analyze"
	// KindERI applies the empty-row-insertion transform at the baseline's
	// hotspots and measures the result.
	KindERI Kind = "eri"
	// KindHW relaxes utilization to the requested overhead and applies the
	// hotspot-wrapper transform on top (the paper's HW strategy).
	KindHW Kind = "hw"
	// KindSweep runs a small efficiency sweep over a list of overheads.
	KindSweep Kind = "sweep"
)

// maxSweepOverheads bounds a sweep query's candidate count. A query's
// placement work and memory grow with the core area and the candidate count
// it asks for, in code that never checks a context, so a query beyond the
// bounds is answered 400 before any placement work instead of running the
// server out of memory. The area bound is core.MaxAreaOverhead, which core
// enforces itself, and the grid_scale bound core.MaxGridScale; the server
// checks both, so such a query never reaches a design.
const maxSweepOverheads = 16

// Query is one parsed what-if question against a resident design. Its
// canonical form (Key) is the cache key: two requests that parse to the same
// Query are interchangeable.
type Query struct {
	Kind Kind
	// Utilization is the target placement utilization (KindAnalyze; zero
	// means the design's baseline utilization). Exec rejects one whose area
	// overhead over the baseline exceeds core.MaxAreaOverhead.
	Utilization float64
	// Rows is the empty-row count (KindERI; zero derives it from Overhead).
	// Exec rejects a count whose area overhead exceeds core.MaxAreaOverhead.
	Rows int
	// Overhead is the fractional area overhead (KindHW, and KindERI when
	// Rows is zero), at most core.MaxAreaOverhead. ParseQuery zeroes it on
	// an ERI query that names rows, which does not read it.
	Overhead float64
	// Overheads are the sweep overheads (KindSweep; empty uses the paper's
	// Figure 6 range), kept sorted so equivalent sweeps share a cache key:
	// at most maxSweepOverheads of them, each at most core.MaxAreaOverhead.
	Overheads []float64
	// GridScale densifies the sweep's overhead axis (KindSweep): Exec
	// measures every point of core.DenseOverheads(Overheads, GridScale). At
	// most core.MaxGridScale; zero, like 1, sweeps the overheads as given.
	GridScale int
	// Full requests the solved surface temperature map in the response.
	Full bool
}

// Key returns the canonical cache key of the query, in the URL query syntax
// ParseQuery reads: parsing a key's parameters gives back the same key.
// Floats are formatted with strconv 'g'/-1, which round-trips float64
// exactly, and query-escaped (an exponent's '+' would otherwise parse as a
// space). Two queries that share a key are the same computation. The
// converse holds except for an ERI query that derives its rows from an
// overhead: it keys apart from the query naming the same row count, since
// resolving the count needs the design.
func (q Query) Key() string {
	var b strings.Builder
	b.WriteString(string(q.Kind))
	ff := func(v float64) string { return url.QueryEscape(strconv.FormatFloat(v, 'g', -1, 64)) }
	switch q.Kind {
	case KindAnalyze:
		b.WriteString("?util=" + ff(q.Utilization))
	case KindERI:
		b.WriteString("?rows=" + strconv.Itoa(q.Rows) + "&overhead=" + ff(q.Overhead))
	case KindHW:
		b.WriteString("?overhead=" + ff(q.Overhead))
	case KindSweep:
		b.WriteString("?overheads=")
		for i, ov := range q.Overheads {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(ff(ov))
		}
		if q.GridScale > 1 {
			b.WriteString("&grid_scale=" + strconv.Itoa(q.GridScale))
		}
	}
	if q.Full {
		b.WriteString("&full=1")
	}
	return b.String()
}

// ParseQuery builds a Query of the given kind from URL parameters and
// enforces the query bounds that need no design. Errors are
// *httpStatusError with status 400.
func ParseQuery(kind Kind, vals url.Values) (Query, error) {
	q := Query{Kind: kind}
	badReq := func(format string, a ...any) (Query, error) {
		return Query{}, &httpStatusError{status: http.StatusBadRequest, category: "bad-request", msg: fmt.Sprintf(format, a...)}
	}
	getFloat := func(name string, dst *float64) error {
		s := vals.Get(name)
		if s == "" {
			return nil
		}
		v, err := parseFinite(s)
		if err != nil {
			return fmt.Errorf("parameter %s=%q: %w", name, s, err)
		}
		*dst = v
		return nil
	}
	getOverhead := func() error {
		if err := getFloat("overhead", &q.Overhead); err != nil {
			return err
		}
		if q.Overhead > core.MaxAreaOverhead {
			return fmt.Errorf("overhead %g above the bound %d", q.Overhead, core.MaxAreaOverhead)
		}
		return nil
	}
	switch kind {
	case KindAnalyze:
		if err := getFloat("util", &q.Utilization); err != nil {
			return badReq("%v", err)
		}
		if q.Utilization < 0 || q.Utilization > 1 {
			return badReq("utilization %g outside (0, 1]", q.Utilization)
		}
	case KindERI:
		if s := vals.Get("rows"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				return badReq("parameter rows=%q: not a non-negative integer", s)
			}
			q.Rows = n
		}
		if err := getOverhead(); err != nil {
			return badReq("%v", err)
		}
		if q.Rows > 0 {
			q.Overhead = 0 // unread: the rows fix the point
		} else if q.Overhead <= 0 {
			return badReq("eri requires rows or a positive overhead")
		}
	case KindHW:
		if err := getOverhead(); err != nil {
			return badReq("%v", err)
		}
		if q.Overhead <= 0 {
			return badReq("hw requires a positive overhead")
		}
	case KindSweep:
		if s := vals.Get("overheads"); s != "" {
			parts := strings.Split(s, ",")
			if len(parts) > maxSweepOverheads {
				return badReq("parameter overheads: %d elements, at most %d", len(parts), maxSweepOverheads)
			}
			for _, part := range parts {
				v, err := parseFinite(strings.TrimSpace(part))
				if err != nil || v <= 0 || v > core.MaxAreaOverhead {
					return badReq("parameter overheads: bad element %q (want an overhead in (0, %d])", part, core.MaxAreaOverhead)
				}
				q.Overheads = append(q.Overheads, v)
			}
			q.Overheads = sortedOverheads(q.Overheads)
		}
		if vals.Has("adaptive") {
			// Answered, not ignored: an adaptive=1 client would otherwise
			// get the undensified grid without knowing it.
			return badReq("parameter adaptive: sweeps are exact; grid_scale densifies the overhead axis")
		}
		if s := vals.Get("grid_scale"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 1 || n > core.MaxGridScale {
				return badReq("parameter grid_scale=%q: not an integer in [1, %d]", s, core.MaxGridScale)
			}
			q.GridScale = n
		}
	default:
		return badReq("unknown query kind %q", kind)
	}
	if s := vals.Get("full"); s != "" {
		full, err := strconv.ParseBool(s)
		if err != nil {
			return badReq("parameter full=%q: not a boolean", s)
		}
		q.Full = full
	}
	return q, nil
}

// parseFinite parses a finite float64. strconv also accepts "NaN" and
// "Inf", which no query parameter can mean.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("not a finite number")
	}
	return v, err
}

// HotspotSummary is the JSON form of one detected hotspot.
type HotspotSummary struct {
	ID        int     `json:"id"`
	PeakRiseK float64 `json:"peak_rise_k"`
	MeanRiseK float64 `json:"mean_rise_k"`
	AreaUm2   float64 `json:"area_um2"`
	Cells     int     `json:"cells"`
}

// SweepPoint is the JSON form of one efficiency-sweep point.
type SweepPoint struct {
	Strategy      string  `json:"strategy"`
	AreaOverhead  float64 `json:"area_overhead"`
	TempReduction float64 `json:"temp_reduction"`
	PeakRiseK     float64 `json:"peak_rise_k"`
	Rows          int     `json:"rows,omitempty"`
	Utilization   float64 `json:"utilization"`
	// Aspect is always zero, so the response never carries it: every point
	// is placed at the flow's configured aspect. It is kept only because
	// the perfbench module reads it.
	Aspect float64 `json:"aspect,omitempty"`

	// Co-analysis metrics: temperature-derated timing and routing congestion
	// measured at this point's placement and solved thermal field.
	CriticalPathPs      float64 `json:"critical_path_ps"`
	WorstSlackPs        float64 `json:"worst_slack_ps"`
	HPWLUm              float64 `json:"hpwl_um"`
	CongestionOverflows int     `json:"congestion_overflows"`
	CongestionMaxUtil   float64 `json:"congestion_max_util"`
	// Pareto marks points on the multi-objective Pareto front over
	// (area overhead, peak rise, critical path, HPWL, overflows).
	Pareto bool `json:"pareto,omitempty"`
}

// Result is the JSON response of a completed query. Float64 values survive
// the JSON round trip exactly (encoding/json emits the shortest decimal that
// parses back to the same bits), which is what lets the chaos harness assert
// bit-identity between served responses and direct flow calls.
type Result struct {
	Design string `json:"design"`
	Kind   Kind   `json:"kind"`
	Query  string `json:"query"`
	// Cached marks a response served from the result LRU.
	Cached bool `json:"cached"`

	Utilization   float64 `json:"utilization,omitempty"`
	AreaOverhead  float64 `json:"area_overhead,omitempty"`
	Rows          int     `json:"rows,omitempty"`
	PeakRiseK     float64 `json:"peak_rise_k,omitempty"`
	TempReduction float64 `json:"temp_reduction,omitempty"`
	TotalPowerW   float64 `json:"total_power_w,omitempty"`

	// Co-analysis metrics of the analyzed point (the baseline, for sweeps):
	// temperature-derated timing and routing congestion.
	CriticalPathPs      float64 `json:"critical_path_ps,omitempty"`
	WorstSlackPs        float64 `json:"worst_slack_ps,omitempty"`
	HPWLUm              float64 `json:"hpwl_um,omitempty"`
	CongestionOverflows int     `json:"congestion_overflows,omitempty"`
	CongestionMaxUtil   float64 `json:"congestion_max_util,omitempty"`

	Hotspots []HotspotSummary `json:"hotspots,omitempty"`
	Points   []SweepPoint     `json:"points,omitempty"`
	// Surface is the solved surface temperature-rise map in kelvin, row-major
	// [ny][nx] (present when the query asked full=1).
	Surface [][]float64 `json:"surface,omitempty"`
}

// Exec runs one query against a flow. It is a pure function of the flow's
// resident baseline and the query: every thermal solve warm-starts from a
// lineage that begins at the baseline and lives entirely inside this call,
// so the result is bit-identical no matter how many other queries run
// concurrently, in what order, or whether a cached intermediate was evicted.
// That property is the contract the chaos harness checks — a served response
// must equal a direct Exec on an equivalently configured flow.
//
// The returned cost is the memory accounting of the solved state behind the
// result (flow.Analysis.MemoryBytes), the unit of the server's LRU budget.
func Exec(ctx context.Context, f *flow.Flow, q Query) (*Result, int64, error) {
	ev, err := core.NewEvaluator(ctx, f)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: baseline: %w", err)
	}
	baseline := ev.Baseline()
	baseRise := baseline.Thermal.PeakRise
	baseArea := baseline.Placement.FP.CoreArea()
	res := &Result{Kind: q.Kind, Query: q.Key()}

	switch q.Kind {
	case KindAnalyze, KindERI, KindHW:
		// One point through the evaluator: analyze is a Default point (at
		// the baseline utilization, the cached baseline analysis), hw the
		// Default point at the overhead with wrappers stacked on it.
		var pt core.Point
		switch q.Kind {
		case KindAnalyze:
			pt = core.Point{Strategy: core.StrategyDefault, Utilization: q.Utilization}
			if pt.Utilization == 0 {
				pt.Utilization = f.Config.Utilization
			}
			if ov := f.Config.Utilization/pt.Utilization - 1; ov > core.MaxAreaOverhead {
				return nil, 0, overBound(fmt.Sprintf("utilization %g", pt.Utilization), ov)
			}
		case KindERI:
			pt = core.Point{Strategy: core.StrategyERI, Rows: q.Rows}
			if pt.Rows == 0 {
				pt.Rows = core.RowsForAreaOverhead(baseline.Placement, q.Overhead)
			} else if ov := core.AreaOverheadForRows(baseline.Placement, pt.Rows); ov > core.MaxAreaOverhead {
				return nil, 0, overBound(fmt.Sprintf("%d empty rows", pt.Rows), ov)
			}
		case KindHW:
			pt = core.Point{Strategy: core.StrategyHW, Utilization: f.Config.Utilization / (1 + q.Overhead)}
		}
		ep, an, err := ev.Evaluate(ctx, pt, nil)
		if err != nil {
			return nil, 0, fmt.Errorf("serve: %s: %w", q.Kind, err)
		}
		if an == nil {
			return nil, 0, &httpStatusError{
				status:   http.StatusUnprocessableEntity,
				category: "no-hotspots",
				msg:      fmt.Sprintf("no tight hotspots at overhead %g; nothing to wrap", q.Overhead),
			}
		}
		// The utilization is the core area's: an analyze point's own
		// Utilization is the requested one, which can differ in the last bit.
		res.Utilization = f.Config.Utilization / (an.Placement.FP.CoreArea() / baseArea)
		res.AreaOverhead = ep.AreaOverhead
		res.Rows = ep.Rows
		res.PeakRiseK = ep.PeakRise
		res.TempReduction = ep.TempReduction
		res.TotalPowerW = an.Power.Total()
		res.HPWLUm = ep.HPWL
		res.CriticalPathPs = ep.CriticalPathPs
		res.WorstSlackPs = ep.WorstSlackPs
		res.CongestionOverflows = ep.CongestionOverflows
		res.CongestionMaxUtil = ep.CongestionMaxUtil
		for _, h := range an.Hotspots {
			res.Hotspots = append(res.Hotspots, HotspotSummary{
				ID: h.ID, PeakRiseK: h.PeakRise, MeanRiseK: h.MeanRise,
				AreaUm2: h.AreaUm2, Cells: len(h.Cells),
			})
		}
		if q.Full {
			res.Surface = gridRows(an.Thermal.RiseMap())
		}
		return res, an.MemoryBytes(), nil

	case KindSweep:
		overheads := q.Overheads
		if len(overheads) == 0 {
			overheads = core.DefaultSweepOptions().Overheads
		}
		// Workers: 1 — the server's concurrency unit is the query, and the
		// admission controller's in-flight bound must bound solver work; a
		// sweep fanning out internally would break that accounting.
		sres, err := core.SweepEfficiencyCtx(ctx, f, core.SweepOptions{
			Overheads: core.DenseOverheads(overheads, q.GridScale),
			Workers:   1,
		})
		if err != nil {
			return nil, 0, fmt.Errorf("serve: sweep: %w", err)
		}
		res.Utilization = sres.BaselineUtilization
		res.PeakRiseK = baseRise
		res.TotalPowerW = baseline.Power.Total()
		res.HPWLUm = baseline.HPWL
		res.CriticalPathPs = baseline.Timing.CriticalPathPs
		res.WorstSlackPs = baseline.Timing.SlackPs
		res.CongestionOverflows = baseline.Congestion.Overflows
		res.CongestionMaxUtil = baseline.Congestion.MaxUtilization
		pareto := map[int]bool{}
		for _, idx := range sres.ParetoFront() {
			pareto[idx] = true
		}
		for i, pt := range sres.Points {
			res.Points = append(res.Points, SweepPoint{
				Strategy:            string(pt.Strategy),
				AreaOverhead:        pt.AreaOverhead,
				TempReduction:       pt.TempReduction,
				PeakRiseK:           pt.PeakRise,
				Rows:                pt.Rows,
				Utilization:         pt.Utilization,
				CriticalPathPs:      pt.CriticalPathPs,
				WorstSlackPs:        pt.WorstSlackPs,
				HPWLUm:              pt.HPWL,
				CongestionOverflows: pt.CongestionOverflows,
				CongestionMaxUtil:   pt.CongestionMaxUtil,
				Pareto:              pareto[i],
			})
		}
		// No analyses are retained (KeepAnalyses false): charge a flat
		// summary cost instead of solver-state bytes.
		return res, 2048 + 512*int64(len(res.Points)), nil

	default:
		return nil, 0, &httpStatusError{status: http.StatusBadRequest, category: "bad-request", msg: fmt.Sprintf("unknown query kind %q", q.Kind)}
	}
}

// overBound is the 400 answer to a query whose core exceeds the
// core.MaxAreaOverhead bound.
func overBound(what string, overhead float64) error {
	return &httpStatusError{status: http.StatusBadRequest, category: "bad-request",
		msg: fmt.Sprintf("%s is an area overhead of %g, above the bound %d", what, overhead, core.MaxAreaOverhead)}
}

// gridRows converts a grid to row-major [ny][nx] JSON-ready rows.
func gridRows(g *geom.Grid) [][]float64 {
	rows := make([][]float64, g.NY)
	for iy := 0; iy < g.NY; iy++ {
		row := make([]float64, g.NX)
		for ix := 0; ix < g.NX; ix++ {
			row[ix] = g.At(ix, iy)
		}
		rows[iy] = row
	}
	return rows
}

package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"slices"
	"sort"

	"thermplace/internal/core"
	"thermplace/internal/flow"
	"thermplace/internal/serve"
	"thermplace/internal/timing"
)

// Tolerances of the golden check. Peak rises may move within the thermal
// solver's SPICE-oracle tolerance; critical-path delays within the matching
// relative share (a 1e-6 C change moves a derated delay by far less);
// wirelengths and geometry within float summation noise. Counts, strategies,
// row counts, fronts and critical-path identities must match exactly.
const (
	riseTolC    = 1e-6
	pathTolRel  = 1e-6
	geomTolRel  = 1e-9
	goldenSeeds = 32 // stimulus seeds with stored golden outputs
)

// output is the checked result of one operation: an analysis (cold-50k), a
// sweep (fig6-sweep, adaptive-sweep), or a served query. For serve-mix it
// holds the hot set's outputs and the list of hotspot wrapper overheads that
// succeed on a clean flow (the pool its fresh queries are drawn from).
type output struct {
	PeakRise       float64 `json:"peak_rise,omitempty"`
	Hotspots       int     `json:"hotspots,omitempty"`
	CriticalPathPs float64 `json:"critical_path_ps,omitempty"`
	CriticalPath   string  `json:"critical_path,omitempty"`
	Overflows      int     `json:"overflows,omitempty"`
	HPWL           float64 `json:"hpwl,omitempty"`

	Points  []point `json:"points,omitempty"`
	Front   []int   `json:"front,omitempty"`
	Front2D []int   `json:"front2d,omitempty"`
	Triage  *triage `json:"triage,omitempty"`

	Hot         map[string]*output `json:"hot,omitempty"`
	HWOverheads []float64          `json:"hw_overheads,omitempty"`
}

// point is one checked sweep point.
type point struct {
	Strategy       string  `json:"strategy"`
	Rows           int     `json:"rows,omitempty"`
	Aspect         float64 `json:"aspect,omitempty"`
	AreaOverhead   float64 `json:"area_overhead"`
	Utilization    float64 `json:"utilization"`
	PeakRise       float64 `json:"peak_rise"`
	CriticalPathPs float64 `json:"critical_path_ps"`
	Overflows      int     `json:"overflows"`
	HPWL           float64 `json:"hpwl"`
}

// triage is the checked part of an adaptive sweep's TriageStats.
type triage struct {
	Candidates   int `json:"candidates"`
	Survivors    int `json:"survivors"`
	CoarseSolves int `json:"coarse_solves"`
	ExactSolves  int `json:"exact_solves"`
}

// pathID names a critical path by its endpoint net, its length and a hash
// of every net along it, so a different path of equal delay still differs.
func pathID(r *timing.Report) string {
	if r == nil || len(r.CriticalPath) == 0 {
		return ""
	}
	h := fnv.New64a()
	for _, st := range r.CriticalPath {
		h.Write([]byte(st.Net.Name))
		h.Write([]byte{0})
	}
	last := r.CriticalPath[len(r.CriticalPath)-1].Net.Name
	return fmt.Sprintf("%s/%d/%016x", last, len(r.CriticalPath), h.Sum64())
}

func analysisOutput(an *flow.Analysis) *output {
	out := &output{PeakRise: an.Thermal.PeakRise, Hotspots: len(an.Hotspots), HPWL: an.HPWL}
	if an.Timing != nil {
		out.CriticalPathPs = an.Timing.CriticalPathPs
		out.CriticalPath = pathID(an.Timing)
	}
	if an.Congestion != nil {
		out.Overflows = an.Congestion.Overflows
	}
	return out
}

func sweepOutput(res *core.SweepResult) *output {
	out := &output{Front: res.ParetoFront(), Front2D: res.Front2D()}
	for _, p := range res.Points {
		out.Points = append(out.Points, point{
			Strategy:       string(p.Strategy),
			Rows:           p.Rows,
			Aspect:         p.Aspect,
			AreaOverhead:   p.AreaOverhead,
			Utilization:    p.Utilization,
			PeakRise:       p.PeakRise,
			CriticalPathPs: p.CriticalPathPs,
			Overflows:      p.CongestionOverflows,
			HPWL:           p.HPWL,
		})
	}
	if ts := res.Triage; ts != nil {
		out.Triage = &triage{
			Candidates:   ts.Candidates,
			Survivors:    ts.Survivors,
			CoarseSolves: ts.CoarseSolves,
			ExactSolves:  ts.ExactSolves,
		}
	}
	return out
}

// resultOutput is the checked part of a served result: the analyzed point
// (a sweep's baseline) and a sweep's points, with its Pareto-flagged points
// as the front. A served result names no critical path, only its delay.
func resultOutput(r *serve.Result) *output {
	out := &output{PeakRise: r.PeakRiseK, Hotspots: len(r.Hotspots), CriticalPathPs: r.CriticalPathPs,
		Overflows: r.CongestionOverflows, HPWL: r.HPWLUm}
	for i, p := range r.Points {
		out.Points = append(out.Points, point{
			Strategy:       p.Strategy,
			Rows:           p.Rows,
			Aspect:         p.Aspect,
			AreaOverhead:   p.AreaOverhead,
			Utilization:    p.Utilization,
			PeakRise:       p.PeakRiseK,
			CriticalPathPs: p.CriticalPathPs,
			Overflows:      p.CongestionOverflows,
			HPWL:           p.HPWLUm,
		})
		if p.Pareto {
			out.Front = append(out.Front, i)
		}
	}
	return out
}

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func nearRel(a, b, rel float64) bool { return math.Abs(a-b) <= rel*math.Max(1, math.Abs(b)) }

// check compares an operation's output against the golden one and returns
// the first mismatch.
func (want *output) check(got *output) error {
	if got == nil {
		return fmt.Errorf("no output")
	}
	if !near(got.PeakRise, want.PeakRise, riseTolC) {
		return fmt.Errorf("peak rise %.12g C, golden %.12g C", got.PeakRise, want.PeakRise)
	}
	if got.Hotspots != want.Hotspots || got.Overflows != want.Overflows || got.CriticalPath != want.CriticalPath {
		return fmt.Errorf("hotspots/overflows/critical path %d/%d/%s, golden %d/%d/%s",
			got.Hotspots, got.Overflows, got.CriticalPath, want.Hotspots, want.Overflows, want.CriticalPath)
	}
	if !nearRel(got.CriticalPathPs, want.CriticalPathPs, pathTolRel) || !nearRel(got.HPWL, want.HPWL, geomTolRel) {
		return fmt.Errorf("critical path %.12g ps / HPWL %.12g um, golden %.12g / %.12g",
			got.CriticalPathPs, got.HPWL, want.CriticalPathPs, want.HPWL)
	}
	if len(got.Points) != len(want.Points) {
		return fmt.Errorf("%d sweep points, golden %d", len(got.Points), len(want.Points))
	}
	for i, w := range want.Points {
		g := got.Points[i]
		if g.Strategy != w.Strategy || g.Rows != w.Rows || g.Overflows != w.Overflows ||
			!nearRel(g.Aspect, w.Aspect, geomTolRel) || !nearRel(g.AreaOverhead, w.AreaOverhead, geomTolRel) ||
			!nearRel(g.Utilization, w.Utilization, geomTolRel) ||
			!near(g.PeakRise, w.PeakRise, riseTolC) || !nearRel(g.CriticalPathPs, w.CriticalPathPs, pathTolRel) ||
			!nearRel(g.HPWL, w.HPWL, geomTolRel) {
			return fmt.Errorf("sweep point %d: %+v, golden %+v", i, g, w)
		}
	}
	if !slices.Equal(got.Front, want.Front) || !slices.Equal(got.Front2D, want.Front2D) {
		return fmt.Errorf("fronts %v / %v, golden %v / %v", got.Front, got.Front2D, want.Front, want.Front2D)
	}
	if (got.Triage == nil) != (want.Triage == nil) || (got.Triage != nil && *got.Triage != *want.Triage) {
		return fmt.Errorf("triage %+v, golden %+v", got.Triage, want.Triage)
	}
	return nil
}

// goldenSet maps goldenKey(workload, size, stimulus seed) to the expected
// output.
type goldenSet map[string]*output

func goldenKey(workload, size string, stim int64) string {
	return fmt.Sprintf("%s/%s/%d", workload, size, stim)
}

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (goldenSet, error) {
	var g goldenSet
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// writeGolden recomputes the golden outputs and writes them to path, one
// entry per line in key order: every stimulus seed at full size, and at tiny
// size the default seed the self-tests run. Given a workload name, it
// recomputes only that workload's entries and keeps the embedded others.
// Each output is the untraced operation's own result, so this is only for
// deliberately accepting new outputs; the benchmark never calls it.
func writeGolden(path, only string, log func(string, ...any)) error {
	g := goldenSet{}
	if only != "" {
		if workloadByName(only) == nil {
			return fmt.Errorf("unknown workload %q", only)
		}
		var err error
		if g, err = loadGolden(); err != nil {
			return err
		}
	}
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		for _, sz := range []string{sizeFull, sizeTiny} {
			seeds := []int64{stimulusSeed(w.defaultSeed)}
			if sz == sizeFull {
				seeds = nil
				for stim := int64(1); stim <= goldenSeeds; stim++ {
					seeds = append(seeds, stim)
				}
			}
			for _, stim := range seeds {
				out, err := w.golden(sz, stim)
				if err != nil {
					return fmt.Errorf("%s/%s seed %d: %w", w.name, sz, stim, err)
				}
				g[goldenKey(w.name, sz, stim)] = out
				log("golden %s/%s seed %d done", w.name, sz, stim)
			}
		}
	}
	keys := make([]string, 0, len(g))
	for k := range g {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteString("{\n")
	for i, k := range keys {
		kj, err := json.Marshal(k)
		if err != nil {
			return err
		}
		vj, err := json.Marshal(g[k])
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(keys)-1 {
			sep = "\n"
		}
		fmt.Fprintf(&b, "%s: %s%s", kj, vj, sep)
	}
	b.WriteString("}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/fault"
	"thermplace/internal/flow"
	"thermplace/internal/geom"
	"thermplace/internal/thermal"
)

// adaptiveKey identifies a sweep point across runs (the candidate it came
// from), independent of how the run triaged.
type adaptiveKey struct {
	strategy Strategy
	rows     int
	aspect   float64
	util     float64
}

func keyOf(p *EfficiencyPoint) adaptiveKey {
	return adaptiveKey{strategy: p.Strategy, rows: p.Rows, aspect: p.Aspect, util: p.Utilization}
}

// TestAdaptiveSweepMatchesExhaustive pins the exactness contract of the
// adaptive sweep: every surviving point is bit-identical (struct ==) to the
// same candidate's point in the exhaustive run over the same densified
// grid, and the 2D Pareto front of the exhaustive run is exactly the front
// of the adaptive run.
func TestAdaptiveSweepMatchesExhaustive(t *testing.T) {
	f := hotFlow(t, "mult8")
	base := SweepOptions{
		Overheads: []float64{0.05, 0.40},
		Workers:   4,
	}
	aspects := []float64{1.0, 2.5}
	exOpts := base
	exOpts.Adaptive = &AdaptiveOptions{GridScale: 3, Margin: math.Inf(1), CoarseFactor: 2, Aspects: aspects}
	exhaustive, err := SweepEfficiencyCtx(context.Background(), f, exOpts)
	if err != nil {
		t.Fatal(err)
	}
	adOpts := base
	adOpts.Adaptive = &AdaptiveOptions{GridScale: 3, Margin: 0.04, CoarseFactor: 2, Aspects: aspects}
	adaptive, err := SweepEfficiencyCtx(context.Background(), f, adOpts)
	if err != nil {
		t.Fatal(err)
	}

	ts := adaptive.Triage
	if ts == nil {
		t.Fatal("adaptive sweep must record triage stats")
	}
	if ex := exhaustive.Triage; ex == nil || ex.Survivors != ex.Candidates {
		t.Fatalf("exhaustive mode must keep every candidate, got %+v", ex)
	}
	if ts.Candidates != exhaustive.Triage.Candidates {
		t.Fatalf("candidate grids differ: %d vs %d", ts.Candidates, exhaustive.Triage.Candidates)
	}
	if ts.Survivors >= ts.Candidates {
		t.Fatalf("triage kept all %d candidates; margin %g should have dropped some", ts.Candidates, ts.Margin)
	}
	if ts.CoarseSolves == 0 || ts.ExactSolves == 0 {
		t.Fatalf("solve counters not recorded: %+v", ts)
	}
	if len(adaptive.Points) >= len(exhaustive.Points) {
		t.Fatalf("adaptive run measured %d points, exhaustive %d; nothing was saved",
			len(adaptive.Points), len(exhaustive.Points))
	}

	// Every adaptive point must be the exhaustive run's measurement of the
	// same candidate, bit for bit.
	exact := make(map[adaptiveKey]EfficiencyPoint, len(exhaustive.Points))
	for _, p := range exhaustive.Points {
		exact[keyOf(&p)] = p
	}
	for _, p := range adaptive.Points {
		ref, ok := exact[keyOf(&p)]
		if !ok {
			t.Fatalf("adaptive point %+v has no exhaustive counterpart", p)
		}
		if p != ref {
			t.Fatalf("adaptive point differs from exhaustive measurement:\n  adaptive:   %+v\n  exhaustive: %+v", p, ref)
		}
	}

	// The true (exhaustive) 2D front must survive triage, and the adaptive
	// front must consist of exactly those points.
	trueFront := make(map[adaptiveKey]bool)
	for _, i := range exhaustive.Front2D() {
		trueFront[keyOf(&exhaustive.Points[i])] = true
	}
	adFront := make(map[adaptiveKey]bool)
	for _, i := range adaptive.Front2D() {
		adFront[keyOf(&adaptive.Points[i])] = true
	}
	for k := range trueFront {
		if !adFront[k] {
			t.Fatalf("true front point %+v missing from the adaptive front", k)
		}
	}
	for k := range adFront {
		if !trueFront[k] {
			t.Fatalf("adaptive front point %+v is not on the true front", k)
		}
	}

	// Error accounting: the histogram covers every est-vs-exact pair.
	histTotal := 0
	for _, n := range ts.ErrHist {
		histTotal += n
	}
	if histTotal == 0 {
		t.Fatal("error histogram is empty")
	}
	if math.IsNaN(ts.MaxEstErrC) || ts.MaxEstErrC < 0 {
		t.Fatalf("non-physical MaxEstErrC %g", ts.MaxEstErrC)
	}
}

// TestAdaptiveFrontExactAtShippedMargins holds the adaptive front to the
// exhaustive one at the settings the commands ship: thermflow -sweep
// -adaptive's defaults on stimulus seeds 1-3 and thermserve's adaptive=1
// defaults on seed 1, each on the paper design under both paper workloads
// over the Figure 6 overheads. Every point of the adaptive Front2D must be
// == (every float) to the Margin +Inf run's point for the same candidate,
// with no point missing and none extra.
func TestAdaptiveFrontExactAtShippedMargins(t *testing.T) {
	if testing.Short() {
		t.Skip("16 paper-scale sweeps")
	}
	d, err := bench.Generate(celllib.Default65nm(), bench.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		seeds []int64
		opts  AdaptiveOptions
	}{
		{"thermflow", []int64{1, 2, 3}, AdaptiveOptions{GridScale: 4, Margin: 0.25}},
		{"thermserve", []int64{1}, AdaptiveOptions{GridScale: 3, Margin: 0.25, CoarseFactor: 2}},
	} {
		for _, wl := range []bench.Workload{bench.ScatteredSmallHotspots(), bench.ConcentratedLargeHotspot()} {
			for _, seed := range tc.seeds {
				t.Run(fmt.Sprintf("%s/%s/seed%d", tc.name, wl.Name, seed), func(t *testing.T) {
					cfg := flow.DefaultConfig()
					cfg.Seed = seed
					f := flow.New(d, wl, cfg)
					front := func(ad AdaptiveOptions) map[adaptiveKey]EfficiencyPoint {
						res, err := SweepEfficiencyCtx(context.Background(), f, SweepOptions{
							Overheads: DefaultSweepOptions().Overheads,
							Workers:   2,
							Adaptive:  &ad,
						})
						if err != nil {
							t.Fatal(err)
						}
						out := map[adaptiveKey]EfficiencyPoint{}
						for _, i := range res.Front2D() {
							out[keyOf(&res.Points[i])] = res.Points[i]
						}
						return out
					}
					exOpts := tc.opts
					exOpts.Margin = math.Inf(1)
					want, got := front(exOpts), front(tc.opts)
					for k, p := range want {
						if q, ok := got[k]; !ok || q != p {
							t.Errorf("exhaustive front point %+v: adaptive front has %+v (present %v)", p, q, ok)
						}
					}
					for k, q := range got {
						if _, ok := want[k]; !ok {
							t.Errorf("adaptive front point %+v is not on the exhaustive front", q)
						}
					}
				})
			}
		}
	}
}

// TestAdaptiveEstimatesIndependentOfWorkers checks that the coarse phase
// is a pure function of its inputs: every estimate solve is seeded from the
// calibration solve's field, so the triage record — which folds in every
// surviving candidate's estimate — and the points are == for one worker,
// for two (the two calibration anchors side by side) and for four.
func TestAdaptiveEstimatesIndependentOfWorkers(t *testing.T) {
	f := hotFlow(t, "mult8")
	run := func(workers int) *SweepResult {
		res, err := SweepEfficiencyCtx(context.Background(), f, SweepOptions{
			Overheads: []float64{0.05, 0.40},
			Workers:   workers,
			Adaptive:  &AdaptiveOptions{GridScale: 3, Margin: 0.04, CoarseFactor: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	if seq.Triage.Anchors != 2 {
		t.Fatalf("%d calibration anchors, want 2 (Default and ERI)", seq.Triage.Anchors)
	}
	for _, workers := range []int{2, 4} {
		par := run(workers)
		if *seq.Triage != *par.Triage {
			t.Fatalf("triage differs between 1 and %d workers:\n  1: %+v\n  %d: %+v", workers, *seq.Triage, workers, *par.Triage)
		}
		if len(seq.Points) != len(par.Points) {
			t.Fatalf("%d points with 1 worker, %d with %d", len(seq.Points), len(par.Points), workers)
		}
		for i := range seq.Points {
			if seq.Points[i] != par.Points[i] {
				t.Fatalf("point %d differs between 1 and %d workers:\n  1: %+v\n  %d: %+v", i, workers, seq.Points[i], workers, par.Points[i])
			}
		}
	}
}

// TestAdaptiveAnchorErrorIndependentOfWorkers fails the Default anchor (a
// utilization of 2 cannot be floorplanned) beside a sound ERI anchor, and
// both anchors together, and requires the Default anchor's error, with its
// provenance, whether the anchors run one after the other or side by side.
func TestAdaptiveAnchorErrorIndependentOfWorkers(t *testing.T) {
	f := hotFlow(t, "mult8")
	ev, err := NewEvaluator(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	for _, eriFails := range []bool{false, true} {
		var msgs []string
		for _, workers := range []int{1, 2} {
			s := newSweep(ev, SweepOptions{Workers: workers}, []float64{0.4}, []float64{f.Config.AspectRatio},
				[]int{RowsForAreaOverhead(ev.baseline.Placement, 0.4)}, f.Config.AspectRatio)
			d0, e0 := s.defaults[0][0], s.eris[0]
			d0.pt.Utilization = 2
			if eriFails {
				e0.pt.Rows = 1 << 30 // above MaxAreaOverhead
			}
			_, err := s.anchors(context.Background(), d0, e0)
			var pv *fault.ProvenanceError
			if !errors.As(err, &pv) || pv.Strategy != string(StrategyDefault) {
				t.Fatalf("ERI fails %v, %d workers: anchors returned %v, want the Default anchor's error", eriFails, workers, err)
			}
			msgs = append(msgs, err.Error())
		}
		if msgs[0] != msgs[1] {
			t.Fatalf("ERI fails %v: the anchors' error differs:\n  1 worker:  %s\n  2 workers: %s", eriFails, msgs[0], msgs[1])
		}
	}
}

// TestAdaptiveInjectionBreaksFront drives the negative-injection knob: a
// biased coarse estimate must push true-front points out of the survivor
// set, which the harness turns into a failed run.
func TestAdaptiveInjectionBreaksFront(t *testing.T) {
	f := hotFlow(t, "mult8")
	base := SweepOptions{
		Overheads: []float64{0.05, 0.40},
		Workers:   4,
	}
	aspects := []float64{1.0, 2.5}
	exOpts := base
	exOpts.Adaptive = &AdaptiveOptions{GridScale: 3, Margin: math.Inf(1), CoarseFactor: 2, Aspects: aspects}
	exhaustive, err := SweepEfficiencyCtx(context.Background(), f, exOpts)
	if err != nil {
		t.Fatal(err)
	}
	adOpts := base
	adOpts.Adaptive = &AdaptiveOptions{
		GridScale: 3, Margin: 0.04, CoarseFactor: 2, Aspects: aspects,
		InjectEstRiseBiasC: 1000,
	}
	broken, err := SweepEfficiencyCtx(context.Background(), f, adOpts)
	if err != nil {
		t.Fatal(err)
	}
	have := make(map[adaptiveKey]bool, len(broken.Points))
	for _, p := range broken.Points {
		have[keyOf(&p)] = true
	}
	missing := 0
	for _, i := range exhaustive.Front2D() {
		if !have[keyOf(&exhaustive.Points[i])] {
			missing++
		}
	}
	if missing == 0 {
		t.Fatal("a 1000C estimate bias dropped no true-front point; the injection knob is dead")
	}
}

// TestAdaptiveValidation rejects nonsensical options with an error naming
// the option. A GridScale above MaxGridScale is rejected before any
// candidate is enumerated (enumerating at a large scale ran the process out
// of memory), and a negative one no longer runs as if it were 1.
func TestAdaptiveValidation(t *testing.T) {
	f := hotFlow(t, "mult8")
	for _, tc := range []struct {
		af   AdaptiveOptions
		want string
	}{
		{AdaptiveOptions{CoarseFactor: 1}, "CoarseFactor >= 2"},
		{AdaptiveOptions{Margin: -0.1, CoarseFactor: 2}, "non-negative Margin"},
		{AdaptiveOptions{Margin: math.NaN(), CoarseFactor: 2}, "non-negative Margin"},
		{AdaptiveOptions{GridScale: MaxGridScale + 1}, "GridScale in [0, 16], got 17"},
		{AdaptiveOptions{GridScale: -1}, "GridScale in [0, 16], got -1"},
	} {
		_, err := SweepEfficiencyCtx(context.Background(), f, SweepOptions{Adaptive: &tc.af})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("options %+v: got error %v, want one containing %q", tc.af, err, tc.want)
		}
	}
}

// TestCoarseDims pins the estimate phase's grid arithmetic: ceil division
// by the factor, clamped to the 2x2 minimum.
func TestCoarseDims(t *testing.T) {
	cases := []struct {
		nx, ny, f      int
		wantNX, wantNY int
	}{
		{40, 40, 1, 40, 40},
		{40, 40, 4, 10, 10},
		{40, 40, 2, 20, 20},
		{41, 40, 2, 21, 20}, // ceil division
		{40, 40, 30, 2, 2},  // clamped to the 2x2 minimum
		{6, 9, 3, 2, 3},
	}
	for _, c := range cases {
		nx, ny := coarseDims(c.nx, c.ny, c.f)
		if nx != c.wantNX || ny != c.wantNY {
			t.Errorf("coarseDims(%d, %d, %d) = %dx%d, want %dx%d",
				c.nx, c.ny, c.f, nx, ny, c.wantNX, c.wantNY)
		}
	}
}

// TestCoarseSolveApproximatesExact bounds the estimation error the adaptive
// sweep's margin has to cover: rebinning a power map onto a grid of half the
// resolution (as the estimate phase does with the baseline map) and solving
// that smaller grid smooths a hotspot over larger cells, which must move the
// peak rise, but not wildly.
func TestCoarseSolveApproximatesExact(t *testing.T) {
	config := func(n int) thermal.Config {
		return thermal.Config{
			NX: n, NY: n,
			Stack: thermal.Stack{
				{Name: "si", Thickness: 40, Conductivity: 110},
				{Name: "active", Thickness: 5, Conductivity: 80, Power: true},
				{Name: "beol", Thickness: 10, Conductivity: 2},
			},
			AmbientC: 25, HBottom: 1.2e6, HTop: 2e4, HSide: 1e3,
		}
	}
	region := geom.Rect{Xhi: 600, Yhi: 600}
	fine := geom.NewGrid(20, 20, region)
	for iy := 0; iy < 20; iy++ {
		for ix := 0; ix < 20; ix++ {
			fine.Set(ix, iy, 1e-5*float64(1+(ix*7+iy*3)%5))
		}
	}
	// Real power maps put hotspots over several grid cells (a hot unit spans
	// many standard cells); a patch — unlike a one-cell delta spike — keeps
	// its local density visible at the coarse resolution.
	for iy := 6; iy < 9; iy++ {
		for ix := 6; ix < 9; ix++ {
			fine.Set(ix, iy, 0.0012)
		}
	}
	exact, err := thermal.Solve(fine, config(20))
	if err != nil {
		t.Fatalf("exact: %v", err)
	}
	coarse := geom.NewGrid(10, 10, region)
	rebinInto(coarse, fine)
	if math.Abs(coarse.Sum()-fine.Sum()) > 1e-12 {
		t.Fatalf("rebinning changed total power: %g -> %g W", fine.Sum(), coarse.Sum())
	}
	est, err := thermal.Solve(coarse, config(10))
	if err != nil {
		t.Fatalf("coarse: %v", err)
	}
	if est.PeakRise <= 0 {
		t.Fatal("coarse estimate lost the rise entirely")
	}
	if rel := math.Abs(est.PeakRise-exact.PeakRise) / exact.PeakRise; rel > 0.35 {
		t.Fatalf("coarse peak rise %g vs exact %g: %.0f%% off, estimation mode useless",
			est.PeakRise, exact.PeakRise, rel*100)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the benchmark must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesBenchmarkJSON checks that the workloads, metric names and
// units the program prints are exactly those BENCHMARK.json declares, and
// that README.md's layer table names every per-layer metric once.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, ours)
	}
	check := func(kind string, declared []metricDef, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(declared) != len(got) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(declared))
			return
		}
		for i, d := range declared {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", endToEnd, s.EndToEnd)
	check("per_layer", perLayer, s.PerLayer)

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(string(readme), "| layer metrics |")
	table, _, _ = strings.Cut(table, "\n\n")
	covered := map[string]int{}
	for _, row := range strings.Split(table, "\n")[2:] {
		cells := strings.Split(row, "|")
		if len(cells) < 2 {
			t.Fatalf("README layer table row %q", row)
		}
		for _, name := range strings.Split(cells[1], ",") {
			covered[strings.Trim(name, " `")]++
		}
	}
	for _, m := range perLayer {
		if covered[m.name] != 1 {
			t.Errorf("per-layer metric %s appears %d times in README.md's layer table", m.name, covered[m.name])
		}
	}
	if len(covered) != len(perLayer) {
		t.Errorf("README.md's layer table names %d metrics, BENCHMARK.json %d", len(covered), len(perLayer))
	}
}

// runTiny runs one tiny-size workload and returns its meta and result.
func runTiny(t *testing.T, gs goldenSet, workload string, trace string) (map[string]any, map[string]any) {
	t.Helper()
	var out, errs bytes.Buffer
	args := []string{"--workload", workload, "--size", sizeTiny, "--seconds", "0.5", "--trace", trace}
	if code := run(args, &out, &errs, gs); code != 0 {
		t.Fatalf("%s trace %s: exit %d: %s", workload, trace, code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], "meta ") {
		t.Fatalf("%s: want a meta line and a result line, got %q", workload, out.String())
	}
	var meta, res map[string]any
	if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], "meta ")), &meta); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return meta, res
}

// TestTinyRuns runs every workload at tiny size, timed and traced: the
// printed metrics must be exactly BENCHMARK.json's with its units, every op
// must pass its golden check, and every replay must reproduce its op.
func TestTinyRuns(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			meta, res := runTiny(t, nil, w.name, trace)
			if res["correct"] != true || res["failed"] != 0.0 || res["attempted"].(float64) < 1 {
				t.Errorf("%s trace %s: correct %v, attempted %v, failed %v: %v", w.name, trace,
					res["correct"], res["attempted"], res["failed"], meta["error"])
			}
			want := s.EndToEnd
			if trace == "1" {
				want = s.PerLayer
			}
			metrics := res["metrics"].(map[string]any)
			if len(metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json has %d", w.name, trace, len(metrics), len(want))
			}
			for _, m := range want {
				v, ok := metrics[m.Name].(map[string]any)
				if !ok || v["unit"] != m.Unit {
					t.Errorf("%s trace %s: metric %s = %v, want unit %s", w.name, trace, m.Name, metrics[m.Name], m.Unit)
				}
			}
			for _, k := range []string{"nproc", "gomaxprocs", "workers", "max_in_flight", "go", "cpu", "samples", "failed_pct"} {
				if _, ok := meta[k]; !ok {
					t.Errorf("%s trace %s: meta lacks %s", w.name, trace, k)
				}
			}
			if _, ok := meta["bench.late_ms_p90"]; w.name == "serve-mix" && !ok {
				t.Errorf("serve-mix: meta lacks bench.late_ms_p90")
			}
		}
	}
}

// TestCorruptedGoldenFails corrupts one golden value per workload and
// expects the run to count failures.
func TestCorruptedGoldenFails(t *testing.T) {
	corruptions := map[string]func(o *output){
		"cold-50k":       func(o *output) { o.PeakRise += 10 * riseTolC },
		"fig6-sweep":     func(o *output) { o.Points[3].PeakRise += 10 * riseTolC },
		"adaptive-sweep": func(o *output) { o.Triage.Survivors++ },
		"serve-mix":      func(o *output) { o.Hot["/sweep?overheads=0.24"].Points[1].PeakRise += 10 * riseTolC },
	}
	for name, corrupt := range corruptions {
		gs, err := loadGolden() // a fresh copy to corrupt
		if err != nil {
			t.Fatal(err)
		}
		w := workloadByName(name)
		corrupt(gs[goldenKey(name, sizeTiny, stimulusSeed(w.defaultSeed))])
		meta, res := runTiny(t, gs, name, "0")
		if res["failed"].(float64) == 0 || meta["failed_pct"].(float64) <= 0 || res["correct"] != false {
			t.Errorf("%s: corrupted golden went unnoticed: %v", name, res)
		}
	}
}

// TestServeMixDetectsWrongResponse tampers with one served response and
// expects the clean-flow check to reject it.
func TestServeMixDetectsWrongResponse(t *testing.T) {
	gs, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	want := gs[goldenKey("serve-mix", sizeTiny, 1)]
	qs, err := servePlan(1, 0.5, want.HWOverheads)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := newServeInst(sizeTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	inst.window(qs)
	if failed, err := inst.verify(qs, want.Hot); failed != 0 {
		t.Fatalf("untampered responses: %d failed: %v", failed, err)
	}
	q := qs[len(qs)/2]
	q.body = bytes.Replace(q.body, []byte(`"peak_rise_k":`), []byte(`"peak_rise_k":1`), 1)
	if failed, _ := inst.verify(qs, want.Hot); failed != 1 {
		t.Errorf("tampered response %s: %d failed, want 1", q.path, failed)
	}
}

// TestInjectedDelayShowsInItsLayerOnly injects a busy-wait of 20% of the
// thermal solve's time around every replayed solve of a fig6 sweep. It must
// appear in thermal.solve_ms and in the replay total, and in no other
// layer. Plain and injected ops alternate, each side running first in half
// the pairs, and each metric's change is the median over the pairs, so a
// drift in host speed hits both sides alike. Each op starts from a collected
// heap, so the garbage collector's work does not move between the sides.
func TestInjectedDelayShowsInItsLayerOnly(t *testing.T) {
	const layer, frac, pairs = "thermal.solve_ms", 0.2, 40
	s, err := newSweepBatch(sizeTiny, 1, fig6Options)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	traced := func(inject map[string]float64) map[string]float64 {
		runtime.GC()
		tr := newTracer(true)
		tr.inject = inject
		ref, rep, err := s.traceOp(context.Background(), tr)
		if err != nil || !sameReplay(ref, rep) {
			t.Fatalf("replay: %v", err)
		}
		tr.values["total"] = tr.spans + tr.values["unattributed_ms"]
		return tr.values
	}
	names := []string{"total"}
	for _, m := range perLayer {
		if m.unit == "ms" {
			names = append(names, m.name)
		}
	}
	var added []float64
	diffs := map[string][]float64{}
	for i := 0; i < pairs; i++ {
		var base, injected map[string]float64
		if i%2 == 0 {
			base = traced(nil)
			injected = traced(map[string]float64{layer: frac})
		} else {
			injected = traced(map[string]float64{layer: frac})
			base = traced(nil)
		}
		added = append(added, frac*base[layer])
		for _, name := range names {
			diffs[name] = append(diffs[name], injected[name]-base[name])
		}
	}
	want := median(added)
	if d := median(diffs[layer]); d < 0.5*want || d > 2*want {
		t.Errorf("%s grew by %.3f ms, want about %.3f", layer, d, want)
	}
	if d := median(diffs["total"]); d < 0.5*want {
		t.Errorf("replay total grew by %.3f ms, want about %.3f", d, want)
	}
	for _, name := range names[1:] {
		if d := median(diffs[name]); name != layer && math.Abs(d) > 0.5*want {
			t.Errorf("%s moved by %.3f ms under an injection of %.3f ms into %s", name, d, want, layer)
		}
	}
}

// TestSeeds checks the seed mapping and that the default and held-out seed
// of every workload have golden outputs, fig6-sweep keeping all 18 points.
func TestSeeds(t *testing.T) {
	for seed, want := range map[int64]int64{1: 1, 32: 32, 33: 1, 0: 32, -1: 31} {
		if got := stimulusSeed(seed); got != want {
			t.Errorf("stimulusSeed(%d) = %d, want %d", seed, got, want)
		}
	}
	gs, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range []int64{w.defaultSeed, w.heldOutSeed} {
			o := gs[goldenKey(w.name, sizeFull, stimulusSeed(seed))]
			if o == nil {
				t.Fatalf("%s seed %d: no golden output", w.name, seed)
			}
			if w.name == "fig6-sweep" && len(o.Points) != 3*len(fig6Overheads) {
				t.Errorf("fig6-sweep seed %d: %d points, want %d", seed, len(o.Points), 3*len(fig6Overheads))
			}
		}
	}
}

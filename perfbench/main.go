// Command perfbench is the repository's benchmark. It runs one seeded
// workload through the library's public APIs (bench → flow → core → serve),
// checks every operation's output against stored golden values, and prints
// one JSON object as the last line of standard output: the end-to-end
// metrics of a timed run, or with --trace 1 the per-layer metrics of a
// traced run that replays each op through the layers' public functions.
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload fig6-sweep --seed 1 --seconds 20 --trace 0
//
// Workloads (workloads.go, servemix.go):
//
//   - cold-50k: a fresh flow's baseline analysis of a 50k-cell design on a
//     160x160x9 grid per op (activity simulation, global placement and
//     solver set-up every op; thermal working set out of cache).
//   - fig6-sweep: the paper's Figure 6 sweep (6 overheads, 18 points) on a
//     warm flow of the 12k-cell design, incremental, co-analysis on.
//   - adaptive-sweep: the adaptive sweep (115 candidates over aspects 1 and
//     2, coarse triage, exact re-solve of the survivors) on the same warm
//     flow.
//   - serve-mix: open-loop queries against thermserve's handler over
//     loopback HTTP, half cache hits, half fresh keys that evict.
//
// The seed selects the logic-simulation stimulus (seed mod 32, the seeds
// golden.json covers) and, for serve-mix, the query stream; the designs are
// fixed. GOMAXPROCS is pinned to 2, sweep Workers to 2 and the server's
// MaxInFlight to 2. A line starting with "meta " before the result records
// the host, the settings, the sample counts and failures.
//
// `go test` in this directory runs the benchmark's self-tests; rewriting
// golden.json after an intended output change is `go run . --write-golden
// golden.json` (add --workload to recompute one workload's entries only).
// `--workload serve-mix --sustained` measures the rate the server sustains
// on serve-mix's queries, which its arrival rate is set from.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

const gomaxprocs = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run runs the benchmark and returns the exit code. A nil golden set means
// the embedded golden.json.
func run(args []string, stdout, stderr io.Writer, gs goldenSet) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold-50k, fig6-sweep, adaptive-sweep or serve-mix")
	seed := fs.Int64("seed", 0, "input seed (default: the workload's default seed)")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	size := fs.String("size", sizeFull, "full, or tiny for self-tests")
	golden := fs.String("write-golden", "", "recompute the golden outputs (of --workload only, if given) into this file and exit")
	sustained := fs.Bool("sustained", false, "serve-mix: send the window's queries closed loop, print the rate the server sustains and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(gomaxprocs)
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }
	if *golden != "" {
		if err := writeGolden(*golden, *name, logf); err != nil {
			logf("perfbench: %v", err)
			return 1
		}
		return 0
	}
	w := workloadByName(*name)
	if w == nil || (*size != sizeFull && *size != sizeTiny) || *seconds <= 0 || (*trace != 0 && *trace != 1) ||
		(*sustained && w.name != "serve-mix") {
		logf("perfbench: bad arguments (workload %q, size %q, seconds %v, trace %d)", *name, *size, *seconds, *trace)
		return 2
	}
	if gs == nil {
		var err error
		if gs, err = loadGolden(); err != nil {
			logf("perfbench: %v", err)
			return 1
		}
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
	if !seedSet {
		*seed = w.defaultSeed
	}
	rc := runConfig{size: *size, seed: *seed, stim: stimulusSeed(*seed), seconds: *seconds, trace: *trace == 1}
	if rc.want = gs[goldenKey(w.name, rc.size, rc.stim)]; rc.want == nil {
		logf("perfbench: no golden output for %s", goldenKey(w.name, rc.size, rc.stim))
		return 1
	}
	if *sustained {
		rate, err := sustainedRate(rc)
		if err != nil {
			logf("perfbench: %s: %v", w.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "serve-mix sustains %.2f queries/s closed loop (%d connections, MaxInFlight %d, GOMAXPROCS %d, %s)\n",
			rate, serveConns, serveMaxInFlight, runtime.GOMAXPROCS(0), cpuModel())
		return 0
	}
	res, err := w.run(rc)
	if err != nil {
		logf("perfbench: %s: %v", w.name, err)
		return 1
	}
	if err := report(stdout, w, rc, res); err != nil {
		logf("perfbench: %v", err)
		return 1
	}
	return 0
}

// report prints the meta line and the result line.
func report(out io.Writer, w *workload, rc runConfig, res *result) error {
	meta := map[string]any{
		"workload":      w.name,
		"seed":          rc.seed,
		"stimulus_seed": rc.stim,
		"default_seed":  w.defaultSeed,
		"held_out_seed": w.heldOutSeed,
		"size":          rc.size,
		"trace":         rc.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"workers":       w.workers,
		"max_in_flight": w.maxInFlight,
		"go":            runtime.Version(),
		"cpu":           cpuModel(),
		"attempted":     res.attempted,
		"failed_pct":    100 * float64(res.failed) / float64(res.attempted),
		"date":          time.Now().UTC().Format(time.RFC3339),
	}
	for k, v := range res.meta {
		meta[k] = v
	}
	mj, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = value{v, d.unit}
	}
	rj, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "meta %s\n%s\n", mj, rj)
	return err
}

// cpuModel returns the host's CPU model name, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// Command thermserve is the fault-tolerant what-if query server: it loads
// one or more scenario families once, keeps their analysis flows resident
// (placed baseline, activity, solver pools, warm-start fields) and answers
// concurrent HTTP/JSON queries about them — what happens to the thermal
// profile at a different utilization, with empty rows inserted, with hotspot
// wrappers applied, or across a small efficiency sweep.
//
// Robustness is the point: bounded admission with load shedding (503 +
// Retry-After), per-request deadlines that cancel in-flight solves, a
// memory-budgeted LRU of solved states, and graceful drain on SIGTERM. Each
// design keeps one thermal solver configuration; the solver's own Jacobi
// fallback is the only degraded mode, counted on /statz. See internal/serve.
//
// Usage:
//
//	thermserve -listen :8080 -families paper-synth9,hotspot-cluster -cells 4000
//	curl 'localhost:8080/analyze?design=paper-synth9&util=0.7'
//	curl 'localhost:8080/delta?design=paper-synth9&strategy=eri&rows=4'
//	curl 'localhost:8080/sweep?design=paper-synth9&overheads=0.1,0.2'
//	curl 'localhost:8080/statz'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/fault"
	"thermplace/internal/flow"
	"thermplace/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		listen   = flag.String("listen", ":8080", "address to serve HTTP on")
		families = flag.String("families", "", "comma-separated scenario families to load (default: all)")
		seed     = flag.Int64("seed", 1, "scenario generation seed")
		cells    = flag.Int("cells", 4000, "approximate cell count per design")
		gridN    = flag.Int("grid", 0, "thermal grid resolution per side (0 = scenario default)")
		cycles   = flag.Int("cycles", 0, "random simulation cycles for activity extraction (0 = scenario default)")
		inflight = flag.Int("inflight", 4, "max concurrently executing queries per design")
		queue    = flag.Int("queue", 16, "max queued queries per design before shedding")
		deadline = flag.Duration("deadline", 30*time.Second, "default per-request deadline (requests may override with deadline_ms)")
		drain    = flag.Duration("drain", 10*time.Second, "graceful-drain timeout on SIGTERM before stragglers are canceled")
		cacheMB  = flag.Int64("cache-mb", 64, "per-design result cache budget in MiB, charged per analysis footprint (negative disables)")
	)
	flag.Parse()
	if *inflight < 0 || *queue < 0 {
		return fatal(fmt.Errorf("bad -inflight %d / -queue %d: want non-negative bounds (0 = default)", *inflight, *queue))
	}

	// SIGINT/SIGTERM triggers the graceful drain; a second signal during the
	// drain kills the process the conventional way (the handler is reset).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	want := bench.Families()
	if *families != "" {
		want = want[:0]
		for _, name := range strings.Split(*families, ",") {
			want = append(want, bench.Family(strings.TrimSpace(name)))
		}
	}

	cacheBytes := *cacheMB << 20
	if *cacheMB < 0 {
		cacheBytes = -1
	}
	srv := serve.NewServer(serve.Config{
		MaxInFlight:     *inflight,
		MaxQueue:        *queue,
		DefaultDeadline: *deadline,
		CacheBytes:      cacheBytes,
	})
	defer srv.Close()

	lib := celllib.Default65nm()
	for _, fam := range want {
		sc := bench.Scenario{Family: fam, Seed: *seed, TargetCells: *cells}
		gen, err := sc.Generate(lib)
		if err != nil {
			return fatal(fmt.Errorf("generating %s: %w", fam, err))
		}
		fcfg := flow.ScenarioConfig(gen.Scenario)
		if *gridN > 0 {
			fcfg.Thermal.NX, fcfg.Thermal.NY = *gridN, *gridN
		}
		if *cycles > 0 {
			fcfg.SimCycles = *cycles
		}
		t0 := time.Now()
		if err := srv.AddDesign(ctx, string(fam), gen.Design, gen.Workload, fcfg, nil); err != nil {
			return fatal(fmt.Errorf("warming up %s: %w", fam, err))
		}
		snap := srv.StatsFor(string(fam))
		fmt.Printf("thermserve: loaded %-18s %6d cells, baseline warm in %v (degradations: %d)\n",
			fam, gen.Design.NumInstances(), time.Since(t0).Round(time.Millisecond), snap.SolveRetries)
	}

	hs := &http.Server{Addr: *listen, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("thermserve: serving %d designs on %s\n", len(srv.Designs()), *listen)

	select {
	case err := <-errc:
		// The listener died before any signal: a genuine failure.
		return fatal(err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second SIGTERM force-kills

	fmt.Fprintf(os.Stderr, "thermserve: signal received, draining (timeout %v)\n", *drain)
	canceled := srv.Drain(*drain)
	sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer scancel()
	_ = hs.Shutdown(sctx)
	if canceled > 0 {
		// The drain window expired with queries still running: the shutdown
		// was a cancellation (exit 130), not a clean completion.
		fmt.Fprintf(os.Stderr, "thermserve: drain timeout: canceled %d in-flight queries\n", canceled)
		return fault.ExitCode(fault.Canceled(context.Canceled))
	}
	fmt.Fprintln(os.Stderr, "thermserve: drained cleanly")
	return fault.ExitOK
}

// fatal prints the error and maps it to the shared exit-code convention:
// 130 for cancellation-induced exits (a signal during warm-up), 1 otherwise.
func fatal(err error) int {
	if errors.Is(err, http.ErrServerClosed) {
		return fault.ExitOK
	}
	fmt.Fprintln(os.Stderr, "thermserve:", err)
	return fault.ExitCode(err)
}

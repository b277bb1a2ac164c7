package harness

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/core"
	"thermplace/internal/fault"
	"thermplace/internal/flow"
)

// The robustness suite's settings: a robustThermalGrid x robustThermalGrid
// thermal grid, robustSimCycles random-vector cycles, and a sweep at
// robustSweepOverhead on robustWorkers concurrent workers. A gracefully
// degraded solve (the Jacobi retry) may drift at most robustTolC degrees
// Celsius from the clean spectral-preconditioned solve, and a mid-sweep
// cancellation must surface within robustCancelLatency of the context
// firing.
const (
	robustThermalGrid   = 20
	robustSimCycles     = 48
	robustSweepOverhead = 0.25
	robustWorkers       = 4
	robustTolC          = 1e-6
	robustCancelLatency = 100 * time.Millisecond
)

// RunRobustness drives one scenario through the fault-injection suite: every
// failure mode the pipeline claims to tolerate is injected deterministically
// and the documented reaction — typed error, graceful degradation, contained
// panic, prompt cancellation, zero goroutine leakage — is verified. Like
// Run, it returns a report of the checks performed; the first violated
// property aborts with a descriptive error.
func RunRobustness(sc bench.Scenario) (*Report, error) {
	gen, err := sc.Generate(celllib.Default65nm())
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Scenario: gen.Scenario,
		Cells:    gen.Design.NumInstances(),
		Units:    len(gen.Config.Units),
	}

	mkFlow := func(inject *fault.Injector) *flow.Flow {
		cfg := flow.ScenarioConfig(gen.Scenario)
		cfg.SimCycles = robustSimCycles
		cfg.RefinePasses = 0
		cfg.Thermal.NX, cfg.Thermal.NY = robustThermalGrid, robustThermalGrid
		cfg.Thermal.Inject = inject
		return flow.New(gen.Design, gen.Workload, cfg)
	}
	sweepOpts := core.SweepOptions{
		Overheads: []float64{robustSweepOverhead},
		Workers:   robustWorkers,
	}

	baseGoroutines := runtime.NumGoroutine()

	// Clean reference: the baseline analysis every degraded run is compared
	// against, and the reference sweep for the context bit-identity check.
	clean := mkFlow(nil)
	cleanBase, err := clean.AnalyzeBaseline()
	if err != nil {
		return rep, fmt.Errorf("harness: %s: clean baseline: %w", gen.Scenario, err)
	}
	hasHotspots := len(cleanBase.Hotspots) > 0
	rep.PeakRise = cleanBase.PeakRise()
	rep.Hotspots = len(cleanBase.Hotspots)

	// Property: a context that never fires changes nothing — a sweep under a
	// live cancelable context is bit-identical (== on every float) to the
	// same sweep under context.Background().
	if !hasHotspots {
		rep.skipped("sweep-ctx-bit-identity", "baseline has no hotspots to sweep")
	} else {
		ref, err := core.SweepEfficiencyCtx(context.Background(), clean, sweepOpts)
		if err != nil {
			return rep, fmt.Errorf("harness: %s: reference sweep: %w", gen.Scenario, err)
		}
		liveCtx, liveCancel := context.WithCancel(context.Background())
		ctxRes, err := core.SweepEfficiencyCtx(liveCtx, mkFlow(nil), sweepOpts)
		liveCancel()
		if err != nil {
			return rep, fmt.Errorf("harness: %s: ctx sweep: %w", gen.Scenario, err)
		}
		if err := compareSweeps(ref, ctxRes); err != nil {
			return rep, fmt.Errorf("harness: %s: live-context sweep vs Background sweep: %w", gen.Scenario, err)
		}
		rep.pass("sweep-ctx-bit-identity", fmt.Sprintf("%d points bit-identical under a live context", len(ref.Points)))
	}

	// Property: a mid-sweep cancellation surfaces as a typed error within
	// the latency bound, even when the canceled solve is stalled (injected
	// hang — the worst case a flaky environment can produce).
	if !hasHotspots {
		rep.skipped("sweep-cancel-latency", "baseline has no hotspots to sweep")
	} else {
		// Solve 1 is the baseline; stalling solve 2 parks the first sweep
		// point until the context fires.
		f := mkFlow(&fault.Injector{StallCGSolveN: 2})
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, serr := core.SweepEfficiencyCtx(ctx, f, sweepOpts)
			done <- serr
		}()
		// Let the sweep reach the stalled solve; whether it has or not, the
		// cancel below must surface within the bound.
		time.Sleep(50 * time.Millisecond)
		tCancel := time.Now()
		cancel()
		serr := <-done
		latency := time.Since(tCancel)
		if !errors.Is(serr, fault.ErrCanceled) {
			return rep, fmt.Errorf("harness: %s: canceled sweep returned %w, want fault.ErrCanceled", gen.Scenario, serr)
		}
		if latency > robustCancelLatency {
			return rep, fmt.Errorf("harness: %s: cancellation took %v (bound %v)", gen.Scenario, latency, robustCancelLatency)
		}
		if f.FaultStats().Canceled == 0 {
			return rep, fmt.Errorf("harness: %s: cancellation not recorded in FaultStats", gen.Scenario)
		}
		rep.pass("sweep-cancel-latency", fmt.Sprintf("stalled solve canceled in %v (bound %v)", latency, robustCancelLatency))
	}

	// Property: a non-converging preconditioned solve is retried once on
	// Jacobi and completes within robustTolC of the clean result.
	{
		f := mkFlow(&fault.Injector{FailCGSolveN: 1})
		an, err := f.AnalyzeBaseline()
		if err != nil {
			return rep, fmt.Errorf("harness: %s: non-convergence was not retried: %w", gen.Scenario, err)
		}
		d := maxAbsDiff(an.Thermal.Surface, cleanBase.Thermal.Surface)
		stats := f.FaultStats()
		if stats.SolveRetries == 0 {
			return rep, fmt.Errorf("harness: %s: solve retry not recorded in FaultStats", gen.Scenario)
		}
		if d > robustTolC {
			return rep, fmt.Errorf("harness: %s: retried solve differs from clean by %.3g C (tol %.3g)", gen.Scenario, d, robustTolC)
		}
		rep.pass("nonconvergence-retry", fmt.Sprintf("Jacobi retry within %.3g C, %d retries recorded", d, stats.SolveRetries))
	}

	// Property: when the retry fails too, the caller gets the typed
	// *fault.ErrNotConverged — extractable through every wrapping layer —
	// not a silent bad result.
	{
		f := mkFlow(&fault.Injector{FailCGSolveN: 1, FailRetry: true})
		_, err := f.AnalyzeBaseline()
		var nc *fault.ErrNotConverged
		if err == nil || !errors.As(err, &nc) {
			return rep, fmt.Errorf("harness: %s: doubly-failed solve did not surface ErrNotConverged: %w", gen.Scenario, err)
		}
		rep.pass("nonconvergence-surfaced", fmt.Sprintf("typed error after %d iterations", nc.Iters))
	}

	// Property: a panic inside a worker task surfaces as a located typed
	// error, not a crash, and the flow keeps working afterwards.
	{
		f := mkFlow(&fault.Injector{PanicCGSolveN: 1})
		_, err := f.AnalyzeBaseline()
		var pe *fault.ErrPanic
		if err == nil || !errors.As(err, &pe) {
			return rep, fmt.Errorf("harness: %s: injected panic not contained: %w", gen.Scenario, err)
		}
		if pe.Where == "" {
			return rep, fmt.Errorf("harness: %s: contained panic lost its location", gen.Scenario)
		}
		if _, err := f.AnalyzeBaseline(); err != nil {
			return rep, fmt.Errorf("harness: %s: flow broken after contained panic: %w", gen.Scenario, err)
		}
		rep.pass("panic-containment", fmt.Sprintf("panic located at %q, flow usable after", pe.Where))
	}

	// Property: a corrupted power profile is rejected before the thermal
	// solve, as a typed setup error naming the stage.
	{
		f := mkFlow(&fault.Injector{CorruptPowerW: math.NaN()})
		_, err := f.AnalyzeBaseline()
		var se *fault.ErrSetup
		if err == nil || !errors.As(err, &se) || se.Stage != "power-map" {
			return rep, fmt.Errorf("harness: %s: corrupted power map not detected: %w", gen.Scenario, err)
		}
		rep.pass("corrupt-power-detected", fmt.Sprintf("rejected at stage %q", se.Stage))
	}

	// Property: after every injected failure and cancellation above, with
	// nothing closed, the goroutine count settles back to where it started — nothing leaked.
	if err := waitGoroutines(baseGoroutines, 5*time.Second); err != nil {
		return rep, fmt.Errorf("harness: %s: %w", gen.Scenario, err)
	}
	rep.pass("zero-goroutine-leak", fmt.Sprintf("settled at baseline %d goroutines", baseGoroutines))
	return rep, nil
}

// waitGoroutines polls until the goroutine count returns to base or the
// timeout expires.
func waitGoroutines(base int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutines leaked: %d running, %d at baseline", n, base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

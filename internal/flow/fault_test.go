package flow

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/fault"
	"thermplace/internal/place"
)

// TestAnalyzeCtxBitIdenticalAndCancelable covers both halves of the context
// contract at the flow layer: a context that never fires leaves every float
// of the analysis identical to a context.Background() analysis, and a
// canceled context aborts with a typed error without leaking goroutines.
func TestAnalyzeCtxBitIdenticalAndCancelable(t *testing.T) {
	base := runtime.NumGoroutine()
	f := smallFlow(t)
	p, err := f.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.AnalyzeWithCtx(context.Background(), p, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	live, liveCancel := context.WithCancel(context.Background())
	defer liveCancel()
	got, err := f.AnalyzeWithCtx(live, p, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Thermal.PeakC != want.Thermal.PeakC || got.Thermal.GradientC != want.Thermal.GradientC {
		t.Fatalf("analysis under a live context differs from a Background one: peak %v vs %v, gradient %v vs %v",
			got.Thermal.PeakC, want.Thermal.PeakC, got.Thermal.GradientC, want.Thermal.GradientC)
	}
	gv, wv := got.Thermal.Surface.Values(), want.Thermal.Surface.Values()
	for i := range gv {
		if gv[i] != wv[i] {
			t.Fatalf("surface cell %d differs: %g vs %g", i, gv[i], wv[i])
		}
	}

	// Cancellation before the solve surfaces as fault.ErrCanceled and is
	// counted on the flow. A stalled solve is exercised separately via the
	// injector.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.AnalyzeWithCtx(ctx, p, AnalyzeOptions{}); !errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("canceled analysis did not report fault.ErrCanceled: %v", err)
	}
	if n := f.FaultStats().Canceled; n != 1 {
		t.Fatalf("FaultStats().Canceled = %d after one canceled analysis, want 1", n)
	}
	waitGoroutines(t, base)
}

// parkedCtx is a cancelable context whose first Done call closes parked.
// On the stalled-solve path the injected stall makes that call, so a test
// can cancel once the solve has parked instead of on a timer.
type parkedCtx struct {
	context.Context
	once   sync.Once
	parked chan struct{}
}

func (c *parkedCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.parked) })
	return c.Context.Done()
}

// TestAnalyzeCancelMidSolveNoLeak cancels an analysis stalled inside the
// thermal solve (injected stall on the first solve) and asserts the typed
// error, the per-flow stats, and that nothing outlives the canceled and the
// following analysis.
func TestAnalyzeCancelMidSolveNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	f := smallFlow(t)
	f.Config.Thermal.Inject = &fault.Injector{StallCGSolveN: 1}
	p, err := f.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pctx := &parkedCtx{Context: ctx, parked: make(chan struct{})}
	errc := make(chan error, 1)
	go func() {
		_, err := f.AnalyzeWithCtx(pctx, p, AnalyzeOptions{})
		errc <- err
	}()
	select {
	case <-pctx.parked:
	case err := <-errc:
		t.Fatalf("analysis returned before parking in the stall: %v", err)
	}
	cancel()
	if err := <-errc; !errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("stalled analysis did not report fault.ErrCanceled: %v", err)
	}
	if f.FaultStats().Canceled == 0 {
		t.Fatal("cancellation not aggregated into the per-flow fault.Stats")
	}

	// The flow recovers: the next analysis (solve 2, not stalled) succeeds.
	if _, err := f.AnalyzeWithCtx(context.Background(), p, AnalyzeOptions{}); err != nil {
		t.Fatalf("analysis after cancellation: %v", err)
	}
	waitGoroutines(t, base)
}

// TestStallAnalyzeProbe covers the flow-level wiring of the service chaos
// probe: an analysis within the armed StallAnalyzeN prefix parks before
// doing any work and unparks only through its context, surfacing the typed
// cancellation; ordinals past the prefix are untouched. The zero-delta no-op
// (parent + empty delta + same placement) answers before the probe and must
// not consume an ordinal.
func TestStallAnalyzeProbe(t *testing.T) {
	base := runtime.NumGoroutine()
	f := smallFlow(t)
	in := &fault.Injector{}
	f.Config.Thermal.Inject = in
	an, err := f.AnalyzeBaseline() // analysis ordinal 1, before arming
	if err != nil {
		t.Fatal(err)
	}

	in.StallAnalyzeN = 2 // ordinal 2 stalls; ordinal 3 onward passes

	// The zero-delta no-op consumes no ordinal: the stall stays armed.
	if again, err := f.AnalyzeWithCtx(context.Background(), an.Placement,
		AnalyzeOptions{Parent: an, Delta: &place.Delta{}}); err != nil || again != an {
		t.Fatalf("zero-delta no-op returned (%v, %v), want the parent analysis back", again, err)
	}

	// Ordinal 2: parks until the context fires, then reports the typed
	// cancellation promptly instead of hanging.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := f.AnalyzeWithCtx(ctx, an.Placement, AnalyzeOptions{})
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it reach the park
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, fault.ErrCanceled) {
			t.Fatalf("stalled analysis returned %v, want fault.ErrCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled analysis did not unpark on cancellation")
	}

	// Ordinal 3 is past the prefix: the same call now succeeds, and the
	// result is bit-identical to the unprobed baseline.
	redo, err := f.AnalyzeWithCtx(context.Background(), an.Placement, AnalyzeOptions{})
	if err != nil {
		t.Fatalf("analysis past the stall prefix failed: %v", err)
	}
	if redo.Thermal.PeakRise != an.Thermal.PeakRise {
		t.Fatalf("post-stall analysis diverged: peak rise %v vs %v", redo.Thermal.PeakRise, an.Thermal.PeakRise)
	}
	waitGoroutines(t, base)
}

// TestCorruptPowerMapDetected asserts that an injected corruption of the
// power profile is caught before the thermal solve, as a typed setup error
// naming the power-map stage.
func TestCorruptPowerMapDetected(t *testing.T) {
	f := smallFlow(t)
	f.Config.Thermal.Inject = &fault.Injector{CorruptPowerW: math.NaN()}
	p, err := f.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	_, aerr := f.AnalyzeWithCtx(context.Background(), p, AnalyzeOptions{})
	if aerr == nil {
		t.Fatal("corrupted power map reached the thermal solver undetected")
	}
	var se *fault.ErrSetup
	if !errors.As(aerr, &se) || se.Stage != "power-map" {
		t.Fatalf("corruption not reported as a power-map setup error: %v", aerr)
	}

	// The injector corrupts only the first map: the next analysis is clean.
	if _, err := f.AnalyzeWithCtx(context.Background(), p, AnalyzeOptions{}); err != nil {
		t.Fatalf("analysis after contained corruption: %v", err)
	}
}

// TestFlowAggregatesSolverFaults asserts that solver-level degradations are
// visible through Flow.FaultStats.
func TestFlowAggregatesSolverFaults(t *testing.T) {
	f := smallFlow(t)
	f.Config.Thermal.Inject = &fault.Injector{FailCGSolveN: 1}
	p, err := f.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AnalyzeWithCtx(context.Background(), p, AnalyzeOptions{}); err != nil {
		t.Fatalf("degraded analysis failed instead of retrying: %v", err)
	}
	if got := f.FaultStats().SolveRetries; got != 1 {
		t.Fatalf("FaultStats().SolveRetries = %d, want 1", got)
	}
}

// waitGoroutines polls until the goroutine count returns to base, failing
// with a full stack dump if it does not settle.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAnalysesLeaveNoGoroutines is the goroutine-leak regression for the
// flow's pooled thermal solvers: repeated flows and analyses must leave the
// goroutine count where it started, with nothing to close.
func TestAnalysesLeaveNoGoroutines(t *testing.T) {
	lib := celllib.Default65nm()
	d, err := bench.Generate(lib, bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	wl := bench.Workload{Name: "hot-mult8", Activity: map[string]float64{"mult8": 0.6}, Default: 0.03}
	cfg := FastConfig()
	// The paper grid (40x40x9 unknowns) is large enough for the CG solvers
	// to run their operations on parallel workers.
	cfg.Thermal.NX, cfg.Thermal.NY = 40, 40

	base := runtime.NumGoroutine()
	for cycle := 0; cycle < 4; cycle++ {
		f := New(d, wl, cfg)
		if _, err := f.AnalyzeBaseline(); err != nil {
			t.Fatal(err)
		}
		if _, err := f.AnalyzeBaseline(); err != nil { // seeded pooled re-solve
			t.Fatal(err)
		}
	}
	waitGoroutines(t, base)
}

package flow

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"thermplace/internal/fault"
	"thermplace/internal/place"
)

// TestAnalyzeCtxBitIdenticalAndCancelable covers both halves of the context
// contract at the flow layer: a context that never fires leaves every float
// of the analysis identical to Analyze, and a canceled context aborts with a
// typed error without leaking the pooled solver's goroutines.
func TestAnalyzeCtxBitIdenticalAndCancelable(t *testing.T) {
	base := runtime.NumGoroutine()
	f := smallFlow(t)
	p, err := f.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	live, liveCancel := context.WithCancel(context.Background())
	defer liveCancel()
	got, err := f.AnalyzeCtx(live, p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Thermal.PeakC != want.Thermal.PeakC || got.Thermal.GradientC != want.Thermal.GradientC {
		t.Fatalf("AnalyzeCtx differs from Analyze: peak %v vs %v, gradient %v vs %v",
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
	if _, err := f.AnalyzeCtx(ctx, p); !errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("canceled analysis did not report fault.ErrCanceled: %v", err)
	}
	if n := f.FaultStats().Canceled; n != 1 {
		t.Fatalf("FaultStats().Canceled = %d after one canceled analysis, want 1", n)
	}
	f.Close()
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
// error, the per-flow stats, and that Close after the cancel leaks nothing.
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
		_, err := f.AnalyzeCtx(pctx, p)
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
	if _, err := f.AnalyzeCtx(context.Background(), p); err != nil {
		t.Fatalf("analysis after cancellation: %v", err)
	}
	f.Close()
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
	defer f.Close()
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
		_, err := f.AnalyzeCtx(ctx, an.Placement)
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
	redo, err := f.AnalyzeCtx(context.Background(), an.Placement)
	if err != nil {
		t.Fatalf("analysis past the stall prefix failed: %v", err)
	}
	if redo.Thermal.PeakRise != an.Thermal.PeakRise {
		t.Fatalf("post-stall analysis diverged: peak rise %v vs %v", redo.Thermal.PeakRise, an.Thermal.PeakRise)
	}
	f.Close()
	waitGoroutines(t, base)
}

// TestCorruptPowerMapDetected asserts that an injected corruption of the
// power profile is caught before the thermal solve, as a typed setup error
// naming the power-map stage.
func TestCorruptPowerMapDetected(t *testing.T) {
	f := smallFlow(t)
	defer f.Close()
	f.Config.Thermal.Inject = &fault.Injector{CorruptPowerW: math.NaN()}
	p, err := f.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	_, aerr := f.Analyze(p)
	if aerr == nil {
		t.Fatal("corrupted power map reached the thermal solver undetected")
	}
	var se *fault.ErrSetup
	if !errors.As(aerr, &se) || se.Stage != "power-map" {
		t.Fatalf("corruption not reported as a power-map setup error: %v", aerr)
	}

	// The injector corrupts only the first map: the next analysis is clean.
	if _, err := f.Analyze(p); err != nil {
		t.Fatalf("analysis after contained corruption: %v", err)
	}
}

// TestFlowAggregatesSolverFaults asserts that solver-level degradations are
// visible through Flow.FaultStats.
func TestFlowAggregatesSolverFaults(t *testing.T) {
	f := smallFlow(t)
	defer f.Close()
	f.Config.Thermal.Inject = &fault.Injector{FailCGSolveN: 1}
	p, err := f.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Analyze(p); err != nil {
		t.Fatalf("degraded analysis failed instead of retrying: %v", err)
	}
	if got := f.FaultStats().SolveRetries; got != 1 {
		t.Fatalf("FaultStats().SolveRetries = %d, want 1", got)
	}
}

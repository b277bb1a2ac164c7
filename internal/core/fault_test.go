package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"thermplace/internal/fault"
)

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

// TestRunTasksCancelsSiblings is the regression for the abort contract: once
// a task fails, an in-flight sibling must be canceled through its context —
// not left to run to completion — and queued tasks must never start. The
// failing task's error must surface even though the canceled sibling ran at
// a lower index.
func TestRunTasksCancelsSiblings(t *testing.T) {
	sentinel := errors.New("task 1 failed")
	started := make(chan struct{})
	var slowCanceled atomic.Bool
	var ran [4]atomic.Bool
	tasks := []func(context.Context) error{
		// Task 0: a long task that only finishes early if the abort
		// cancellation reaches it.
		func(ctx context.Context) error {
			close(started)
			select {
			case <-ctx.Done():
				slowCanceled.Store(true)
				return fault.Canceled(ctx.Err())
			case <-time.After(10 * time.Second):
				return errors.New("sibling was never canceled")
			}
		},
		// Task 1 fails once task 0 is in flight.
		func(context.Context) error {
			<-started
			return sentinel
		},
		func(context.Context) error { ran[2].Store(true); return nil },
		func(context.Context) error { ran[3].Store(true); return nil },
	}
	start := time.Now()
	err := runTasks(context.Background(), tasks, 2)
	if !errors.Is(err, sentinel) {
		t.Fatalf("abort returned %v, want the failing task's error (a canceled sibling must not mask it)", err)
	}
	if !slowCanceled.Load() {
		t.Fatal("in-flight sibling was not canceled on failure")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("abort took %v: the sibling ran to completion instead of being canceled", elapsed)
	}
	if ran[2].Load() || ran[3].Load() {
		t.Fatal("queued tasks started after a recorded failure")
	}
}

// TestRunTasksExternalCancel asserts that canceling the caller's context
// aborts the group with a typed error on both the sequential and the
// concurrent path.
func TestRunTasksExternalCancel(t *testing.T) {
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		tasks := make([]func(context.Context) error, 8)
		for i := range tasks {
			tasks[i] = func(tctx context.Context) error {
				if ran.Add(1) == 1 {
					cancel() // fire mid-run, from inside the first task
				}
				<-tctx.Done()
				return fault.Canceled(tctx.Err())
			}
		}
		err := runTasks(ctx, tasks, workers)
		cancel()
		if !errors.Is(err, fault.ErrCanceled) {
			t.Fatalf("workers=%d: external cancel returned %v, want fault.ErrCanceled", workers, err)
		}
		if got := ran.Load(); got > int32(workers) {
			t.Fatalf("workers=%d: %d tasks started after the cancel", workers, got)
		}
	}
}

// TestRunTasksPanicContained asserts that a panicking task surfaces as a
// located typed error instead of crashing the worker group.
func TestRunTasksPanicContained(t *testing.T) {
	for _, workers := range []int{1, 3} {
		tasks := []func(context.Context) error{
			func(context.Context) error { return nil },
			func(context.Context) error { panic("task exploded") },
			func(context.Context) error { return nil },
		}
		err := runTasks(context.Background(), tasks, workers)
		var pe *fault.ErrPanic
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: task panic not contained: %v", workers, err)
		}
		if pe.Value != "task exploded" {
			t.Fatalf("workers=%d: panic value lost: %v", workers, pe.Value)
		}
	}
}

// TestRunTasksPanicDuringCancel asserts the error-preference contract when a
// sibling panics while the group's context is already canceled: the panic is
// a genuine failure and must surface as the located *fault.ErrPanic, never
// masked by the cancellation the other siblings are reporting.
func TestRunTasksPanicDuringCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	tasks := []func(context.Context) error{
		// Cancels the group once the sibling is in flight, so both tasks are
		// executing when the cancellation lands (a recorded failure would
		// otherwise skip the not-yet-started sibling).
		func(tctx context.Context) error {
			<-started
			cancel()
			<-tctx.Done()
			return fault.Canceled(tctx.Err())
		},
		// Panics only after the cancellation has fired.
		func(tctx context.Context) error {
			close(started)
			<-tctx.Done()
			panic("sibling exploded during cancellation")
		},
	}
	err := runTasks(ctx, tasks, 2)
	var pe *fault.ErrPanic
	if !errors.As(err, &pe) {
		t.Fatalf("panic during cancellation returned %v, want the contained *fault.ErrPanic", err)
	}
	if pe.Value != "sibling exploded during cancellation" {
		t.Fatalf("panic value lost: %v", pe.Value)
	}
	if errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("panic error also matches ErrCanceled, so exit-code mapping would report 130 for a crash: %v", err)
	}

	// The sequential path, by contrast, never starts a task under an
	// already-canceled context: there is nothing to panic, and the typed
	// cancellation is the whole story.
	err = runTasks(ctx, []func(context.Context) error{
		func(context.Context) error { panic("must not run") },
	}, 1)
	if !errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("sequential path under a canceled context returned %v, want fault.ErrCanceled", err)
	}
}

// TestSweepCancelMidSweep cancels a sweep stalled inside a thermal solve and
// asserts the typed error and the zero-leak guarantee (the harness
// additionally asserts the <100ms latency bound on the paper-scale sweep).
func TestSweepCancelMidSweep(t *testing.T) {
	base := runtime.NumGoroutine()
	f := hotFlow(t, "mult8")
	// Solve 1 is the baseline; stalling solve 2 parks the first sweep point.
	f.Config.Thermal.Inject = &fault.Injector{StallCGSolveN: 2}
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(50*time.Millisecond, cancel)
	defer timer.Stop()
	_, err := SweepEfficiencyCtx(ctx, f, SweepOptions{Overheads: []float64{0.2}, Workers: 2})
	if !errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("canceled sweep returned %v, want fault.ErrCanceled", err)
	}
	if f.FaultStats().Canceled == 0 {
		t.Fatal("cancellation not recorded in the flow's fault stats")
	}
	waitGoroutines(t, base)
}

// TestSweepNotConvergedExtraction pins the error taxonomy across the full
// wrapping chain: an injected CG non-convergence inside one sweep point must
// be extractable from the sweep's returned error both as the typed
// *fault.ErrNotConverged and as a *fault.ProvenanceError naming the design,
// the strategy and the point that failed.
func TestSweepNotConvergedExtraction(t *testing.T) {
	f := hotFlow(t, "mult8")
	// Solve 1 is the baseline; solve 2 is the first Default point with
	// Workers=1. FailRetry makes the Jacobi fallback fail too, so the
	// non-convergence surfaces instead of degrading.
	f.Config.Thermal.Inject = &fault.Injector{FailCGSolveN: 2, FailRetry: true}
	_, err := SweepEfficiencyCtx(context.Background(), f, SweepOptions{Overheads: []float64{0.2}, Workers: 1})
	if err == nil {
		t.Fatal("sweep with a doubly-failed solve reported success")
	}
	var nc *fault.ErrNotConverged
	if !errors.As(err, &nc) {
		t.Fatalf("ErrNotConverged not extractable through core/flow wrapping: %v", err)
	}
	if nc.Iters <= 0 {
		t.Fatalf("ErrNotConverged lost its fields through wrapping: %+v", nc)
	}
	var pv *fault.ProvenanceError
	if !errors.As(err, &pv) {
		t.Fatalf("sweep error carries no provenance: %v", err)
	}
	if pv.Design != f.Design.Name || pv.Strategy != string(StrategyDefault) || pv.Point != 0 {
		t.Fatalf("wrong provenance %q/%q point %d: %v", pv.Design, pv.Strategy, pv.Point, err)
	}

	// The sweep works once the injected solve ordinal is past.
	if _, err := SweepEfficiencyCtx(context.Background(), f, SweepOptions{Overheads: []float64{0.2}, Workers: 1}); err != nil {
		t.Fatalf("sweep after surfaced failure: %v", err)
	}
}

// TestSweepCtxBitIdentical asserts the never-fires half of the context
// contract at the sweep level: SweepEfficiencyCtx with a live cancelable
// context is == (every float) to a context.Background() run.
func TestSweepCtxBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-sweep comparison skipped in -short mode")
	}
	run := func(ctx context.Context) *SweepResult {
		f := hotFlow(t, "mult8")
		res, err := SweepEfficiencyCtx(ctx, f, SweepOptions{Overheads: []float64{0.2}, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	comparePoints(t, "live-context sweep", run(context.Background()), run(ctx))
}

package fault

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestCanceledTaxonomy(t *testing.T) {
	err := Canceled(context.Canceled)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Canceled(context.Canceled) does not match ErrCanceled: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cause not reachable: %v", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("plain cancel must not match context.DeadlineExceeded: %v", err)
	}

	derr := Canceled(context.DeadlineExceeded)
	if !errors.Is(derr, ErrCanceled) {
		t.Fatalf("deadline cancel must match ErrCanceled: %v", derr)
	}
	if !errors.Is(derr, context.DeadlineExceeded) {
		t.Fatalf("deadline cause not reachable: %v", derr)
	}

	// Wrapping elsewhere in the pipeline must not break the match.
	wrapped := fmt.Errorf("thermal: solving system: %w", Canceled(nil))
	if !errors.Is(wrapped, ErrCanceled) {
		t.Fatalf("wrapped cancel lost the sentinel: %v", wrapped)
	}
}

func TestNotConvergedExtraction(t *testing.T) {
	base := &ErrNotConverged{Iters: 42, Residual: 3.5e-4}
	err := fmt.Errorf("core: default point 0.25: %w",
		fmt.Errorf("flow: thermal simulation: %w", base))
	var nc *ErrNotConverged
	if !errors.As(err, &nc) {
		t.Fatalf("ErrNotConverged not extractable from %v", err)
	}
	if nc.Iters != 42 || nc.Residual != 3.5e-4 {
		t.Fatalf("fields lost through wrapping: %+v", nc)
	}
}

func TestRecoveredPreservesLocation(t *testing.T) {
	inner := Recovered("sparse.Pool worker 2", "boom")
	if inner.Where != "sparse.Pool worker 2" || len(inner.Stack) == 0 {
		t.Fatalf("bad recovery record: %+v", inner)
	}
	// A rethrown *ErrPanic keeps its original location.
	outer := Recovered("thermal.Solver.Solve", inner)
	if outer != inner {
		t.Fatalf("rethrown panic relocated: %+v", outer)
	}
}

func TestProvenanceWrapping(t *testing.T) {
	if WithProvenance(nil, "d", "s", 0) != nil {
		t.Fatal("nil error must stay nil")
	}
	base := &ErrSetup{Stage: "power-map", Err: errors.New("cell 0 holds non-physical power NaN W")}
	err := WithProvenance(fmt.Errorf("flow: thermal simulation: %w", base), "paper-synth9", "hw", 3)
	var pe *ProvenanceError
	if !errors.As(err, &pe) {
		t.Fatalf("provenance not extractable from %v", err)
	}
	if pe.Design != "paper-synth9" || pe.Strategy != "hw" || pe.Point != 3 {
		t.Fatalf("provenance fields wrong: %+v", pe)
	}
	var se *ErrSetup
	if !errors.As(err, &se) || se.Stage != "power-map" {
		t.Fatalf("inner setup error unreachable: %v", err)
	}
}

func TestInjectorProbes(t *testing.T) {
	var nilInj *Injector
	if nilInj.NextSolve() != 0 || nilInj.FailSolve(1, 0) || nilInj.StallSolve(1) ||
		nilInj.PanicSolve(1) || nilInj.CorruptPower([]float64{1}) {
		t.Fatal("nil injector must inject nothing")
	}

	in := &Injector{FailCGSolveN: 2, StallCGSolveN: 3, PanicCGSolveN: 4, CorruptPowerW: 0.5}
	var ns []int
	for i := 0; i < 4; i++ {
		ns = append(ns, in.NextSolve())
	}
	if ns[0] != 1 || ns[3] != 4 {
		t.Fatalf("solve ordinals wrong: %v", ns)
	}
	if in.FailSolve(1, 0) || !in.FailSolve(2, 0) || in.FailSolve(2, 1) {
		t.Fatal("FailSolve gating wrong (retry must pass without FailRetry)")
	}
	in.FailRetry = true
	if !in.FailSolve(2, 1) {
		t.Fatal("FailRetry must fail the retry attempt too")
	}
	if in.StallSolve(2) || !in.StallSolve(3) || in.PanicSolve(3) || !in.PanicSolve(4) {
		t.Fatal("stall/panic gating wrong")
	}

	vals := []float64{1.0, 2.0}
	if !in.CorruptPower(vals) || vals[0] != 1.5 {
		t.Fatalf("first power map not corrupted: %v", vals)
	}
	if in.CorruptPower(vals) || vals[0] != 1.5 {
		t.Fatalf("corruption must fire exactly once: %v", vals)
	}
}

func TestServiceProbes(t *testing.T) {
	// The zero-value / nil contract every probe shares.
	var nilInj *Injector
	if nilInj.NextAnalyze() != 0 || nilInj.StallAnalyze(1) || nilInj.FailAdmit() {
		t.Fatal("nil injector must inject nothing")
	}
	var zero Injector
	if zero.StallAnalyze(zero.NextAnalyze()) || zero.FailAdmit() {
		t.Fatal("zero-value injector must inject nothing")
	}

	// StallAnalyzeN arms a prefix: analyses 1..N stall, N+1 onward run.
	in := &Injector{StallAnalyzeN: 2}
	if n := in.NextAnalyze(); n != 1 || !in.StallAnalyze(n) {
		t.Fatalf("analysis 1 must stall (got ordinal %d)", n)
	}
	if n := in.NextAnalyze(); n != 2 || !in.StallAnalyze(n) {
		t.Fatalf("analysis 2 must stall (got ordinal %d)", n)
	}
	if n := in.NextAnalyze(); n != 3 || in.StallAnalyze(n) {
		t.Fatalf("analysis 3 must run (got ordinal %d)", n)
	}
	if in.StallAnalyze(0) {
		t.Fatal("ordinal 0 (nil-injector call site) must never stall")
	}

	// FailAdmitN sheds exactly the first N admission attempts.
	adm := &Injector{FailAdmitN: 2}
	got := []bool{adm.FailAdmit(), adm.FailAdmit(), adm.FailAdmit(), adm.FailAdmit()}
	want := []bool{true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FailAdmit sequence %v, want %v", got, want)
		}
	}
}

func TestExitCode(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, ExitOK},
		{errors.New("solver exploded"), ExitFailure},
		{fmt.Errorf("flow: %w", &ErrNotConverged{Iters: 9}), ExitFailure},
		{Canceled(context.Canceled), ExitCanceled},
		{fmt.Errorf("core: sweep: %w", Canceled(context.DeadlineExceeded)), ExitCanceled},
		// Raw context errors that escaped the pipeline unwrapped still exit
		// as cancellations, not analysis failures.
		{context.Canceled, ExitCanceled},
		{fmt.Errorf("reading config: %w", context.DeadlineExceeded), ExitCanceled},
	}
	for _, c := range cases {
		if got := ExitCode(c.err); got != c.want {
			t.Fatalf("ExitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// Package fault is the robustness layer of the analysis pipeline: the typed
// error taxonomy every solver and flow stage reports through, the counters
// that record graceful-degradation events, and the deterministic
// fault-injection probe points the bench harness uses to prove that
// cancellation, panic containment and solver degradation actually work.
//
// The package sits below every other internal package (it imports only the
// standard library), so sparse, thermal, flow and core can all return its
// errors without import cycles. Callers classify failures with errors.Is /
// errors.As:
//
//	errors.Is(err, fault.ErrCanceled)        // the context fired
//	errors.Is(err, context.DeadlineExceeded) // ... because a deadline passed
//	errors.As(err, &ncErr)                   // *fault.ErrNotConverged
//	errors.As(err, &setupErr)                // *fault.ErrSetup
//	errors.As(err, &panicErr)                // *fault.ErrPanic
//	errors.As(err, &provErr)                 // *fault.ProvenanceError
package fault

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
)

// ErrCanceled is the sentinel every cancellation-induced failure matches via
// errors.Is: an analysis aborted because its context fired, not because the
// computation itself went wrong.
var ErrCanceled = errors.New("fault: analysis canceled")

// canceledError wraps the context cause so both the taxonomy sentinel and
// the standard context errors keep matching through errors.Is.
type canceledError struct{ cause error }

func (e *canceledError) Error() string        { return "fault: analysis canceled: " + e.cause.Error() }
func (e *canceledError) Unwrap() error        { return e.cause }
func (e *canceledError) Is(target error) bool { return target == ErrCanceled }

// Canceled wraps a context cause (ctx.Err()) into the taxonomy: the result
// matches ErrCanceled and still matches the original context error, so an
// expired deadline matches context.DeadlineExceeded. A nil cause is treated
// as context.Canceled.
func Canceled(cause error) error {
	if cause == nil {
		cause = context.Canceled
	}
	return &canceledError{cause: cause}
}

// ErrNotConverged reports an iterative solve that exhausted its iteration
// budget without reaching the residual tolerance. Iters is the number of
// iterations spent and Residual the relative residual they ended on.
type ErrNotConverged struct {
	Iters    int
	Residual float64
}

func (e *ErrNotConverged) Error() string {
	return fmt.Sprintf("fault: solver did not converge in %d iterations (residual %g)", e.Iters, e.Residual)
}

// ErrSetup reports an analysis input rejected before the solve — a power map
// holding non-physical values — as distinct from a failure of the solve
// itself. Stage names the step that rejected it.
type ErrSetup struct {
	Stage string
	Err   error
}

func (e *ErrSetup) Error() string {
	if e.Err == nil {
		return "fault: solver setup failed: " + e.Stage
	}
	return "fault: solver setup (" + e.Stage + "): " + e.Err.Error()
}
func (e *ErrSetup) Unwrap() error { return e.Err }

// ErrPanic is a contained panic converted into a located error: a worker
// goroutine or analysis task crashed, the recovery captured where and with
// what value, and the failure now propagates as an ordinary error instead of
// killing the process.
type ErrPanic struct {
	// Where locates the recovery site, e.g. "sparse.Pool worker 3" or
	// "core: sweep task 2".
	Where string
	// Value is the value the code panicked with.
	Value any
	// Stack is the stack trace captured at recovery.
	Stack []byte
}

func (e *ErrPanic) Error() string {
	return fmt.Sprintf("fault: panic in %s: %v", e.Where, e.Value)
}

// Recovered converts a recover() value into an *ErrPanic located at where,
// capturing the current stack. A value that already is an *ErrPanic (a panic
// rethrown across a worker boundary) is returned unchanged so the original
// location survives.
func Recovered(where string, value any) *ErrPanic {
	if pe, ok := value.(*ErrPanic); ok {
		return pe
	}
	return &ErrPanic{Where: where, Value: value, Stack: debug.Stack()}
}

// ProvenanceError tags a pipeline failure with where in the experiment it
// happened: which design, which strategy, and which sweep point. The wrapped
// error stays reachable through errors.Is/As.
type ProvenanceError struct {
	// Design is the design name the analysis ran on.
	Design string
	// Strategy is the sweep strategy of the failing point ("default", "eri",
	// "hw", or a stage name like "baseline").
	Strategy string
	// Point is the index of the failing point within its strategy's sweep
	// axis (overhead index for default/hw, aspect-major across an adaptive
	// sweep's aspects; row-count index for eri).
	Point int
	Err   error
}

func (e *ProvenanceError) Error() string {
	return fmt.Sprintf("%s/%s point %d: %v", e.Design, e.Strategy, e.Point, e.Err)
}
func (e *ProvenanceError) Unwrap() error { return e.Err }

// WithProvenance wraps err with experiment provenance; a nil err stays nil.
func WithProvenance(err error, design, strategy string, point int) error {
	if err == nil {
		return nil
	}
	return &ProvenanceError{Design: design, Strategy: strategy, Point: point, Err: err}
}

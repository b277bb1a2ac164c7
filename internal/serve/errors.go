package serve

import (
	"context"
	"errors"
	"net/http"

	"thermplace/internal/fault"
)

// Shed reasons, returned in the "category" field of 503 responses so clients
// (and the chaos harness) can distinguish why a query never started.
const (
	ShedQueueFull = "shed-queue-full" // the bounded queue was already full
	ShedDeadline  = "shed-deadline"   // the deadline expired while queued
	ShedDraining  = "shed-draining"   // the server is draining (SIGTERM)
	ShedInjected  = "shed-injected"   // fault.Injector.FailAdmitN probe
)

// shedError is an admission-control rejection: the query was never started.
type shedError struct {
	reason string // one of the Shed* categories
	cause  error  // the expired context error for ShedDeadline, else nil
}

func (e *shedError) Error() string {
	if e.cause != nil {
		return "serve: query shed (" + e.reason + "): " + e.cause.Error()
	}
	return "serve: query shed (" + e.reason + ")"
}

func (e *shedError) Unwrap() error { return e.cause }

// httpStatusError carries an explicit HTTP status and fault category for
// request-level failures (unknown design, malformed query).
type httpStatusError struct {
	status   int
	category string
	msg      string
}

func (e *httpStatusError) Error() string { return "serve: " + e.category + ": " + e.msg }

// errorBody is the JSON shape of every non-200 response. Category is the
// fault-taxonomy classification of the cause; the provenance fields are
// filled when the error carries a fault.ProvenanceError.
type errorBody struct {
	Error    string `json:"error"`
	Category string `json:"category"`
	Design   string `json:"design,omitempty"`
	Strategy string `json:"strategy,omitempty"`
	Point    int    `json:"point,omitempty"`
}

// classify maps an error to its HTTP status and fault-taxonomy category.
// Admission rejections are 503 (the client should retry after backoff),
// deadline expiries are 504, solver faults and contained panics are 500 with
// the precise category, so an error response always says which layer failed.
func classify(err error) (int, errorBody) {
	body := errorBody{Error: err.Error(), Category: "internal"}
	var pv *fault.ProvenanceError
	if errors.As(err, &pv) {
		body.Design, body.Strategy, body.Point = pv.Design, pv.Strategy, pv.Point
	}
	var shed *shedError
	var hse *httpStatusError
	var nc *fault.ErrNotConverged
	var se *fault.ErrSetup
	var pe *fault.ErrPanic
	switch {
	case errors.As(err, &shed):
		body.Category = shed.reason
		return http.StatusServiceUnavailable, body
	case errors.As(err, &hse):
		body.Category = hse.category
		return hse.status, body
	case errors.Is(err, context.DeadlineExceeded):
		body.Category = "deadline"
		return http.StatusGatewayTimeout, body
	case errors.Is(err, fault.ErrCanceled), errors.Is(err, context.Canceled):
		body.Category = "canceled"
		return http.StatusServiceUnavailable, body
	case errors.As(err, &pe):
		body.Category = "panic"
		return http.StatusInternalServerError, body
	case errors.As(err, &nc):
		body.Category = "not-converged"
		return http.StatusInternalServerError, body
	case errors.As(err, &se):
		body.Category = "solver-setup"
		return http.StatusInternalServerError, body
	default:
		return http.StatusInternalServerError, body
	}
}

// shedStatus reports whether the error is an admission-control shed (the
// query never started), as opposed to a failure of a started query.
func isShed(err error) bool {
	var shed *shedError
	return errors.As(err, &shed)
}

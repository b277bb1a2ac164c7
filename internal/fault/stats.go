package fault

import "sync/atomic"

// Stats counts the robustness events of one analysis owner (a flow, a
// standalone thermal solver, or a query server design): every graceful
// degradation, contained panic and cancellation is recorded here so callers
// can observe that a result was produced on a fallback path. The service
// counters (admitted, shed, timed-out, degraded, evicted) record the
// admission-control and graceful-degradation decisions of a long-running
// query server on the same collector, so one snapshot tells the whole
// robustness story of a design. All methods are safe for concurrent use and
// nil-safe, so solvers can record unconditionally whether or not an owner
// attached a Stats.
type Stats struct {
	mgSetupFailures atomic.Uint64
	solveRetries    atomic.Uint64
	panicsContained atomic.Uint64
	canceled        atomic.Uint64

	admitted atomic.Uint64
	shed     atomic.Uint64
	timedOut atomic.Uint64
	degraded atomic.Uint64
	evicted  atomic.Uint64
}

// AddMGSetupFailure records a multigrid setup/refresh failure that degraded
// the solver to the Jacobi preconditioner.
func (s *Stats) AddMGSetupFailure() {
	if s != nil {
		s.mgSetupFailures.Add(1)
	}
}

// AddSolveRetry records a non-converged preconditioned solve retried on the
// Jacobi fallback with a raised iteration budget.
func (s *Stats) AddSolveRetry() {
	if s != nil {
		s.solveRetries.Add(1)
	}
}

// AddPanicContained records a panic converted into a typed error instead of
// crashing the process.
func (s *Stats) AddPanicContained() {
	if s != nil {
		s.panicsContained.Add(1)
	}
}

// AddCanceled records a solve or analysis aborted by its context.
func (s *Stats) AddCanceled() {
	if s != nil {
		s.canceled.Add(1)
	}
}

// AddAdmitted records a query that passed admission control and started.
func (s *Stats) AddAdmitted() {
	if s != nil {
		s.admitted.Add(1)
	}
}

// AddShed records a query rejected by admission control — a full queue, an
// already-expired deadline, or a draining server — before any work ran.
func (s *Stats) AddShed() {
	if s != nil {
		s.shed.Add(1)
	}
}

// AddTimedOut records an admitted query whose deadline (or client) canceled
// it mid-analysis.
func (s *Stats) AddTimedOut() {
	if s != nil {
		s.timedOut.Add(1)
	}
}

// AddDegraded records a query served on a fallback path (for example the
// Jacobi flow behind an open multigrid circuit breaker).
func (s *Stats) AddDegraded() {
	if s != nil {
		s.degraded.Add(1)
	}
}

// AddEvicted records a result cache entry dropped to stay inside the
// memory budget; the next query for it re-derives the state via the
// warm-start fallback.
func (s *Stats) AddEvicted() {
	if s != nil {
		s.evicted.Add(1)
	}
}

// StatsSnapshot is a plain-value copy of the counters at one instant.
type StatsSnapshot struct {
	// MGSetupFailures counts multigrid setup/refresh failures degraded to
	// the Jacobi preconditioner.
	MGSetupFailures uint64
	// SolveRetries counts non-converged solves retried with Jacobi and a
	// raised iteration budget.
	SolveRetries uint64
	// PanicsContained counts panics converted into typed errors.
	PanicsContained uint64
	// Canceled counts solves aborted by context cancellation.
	Canceled uint64
	// Admitted counts queries that passed admission control and started.
	Admitted uint64
	// Shed counts queries rejected before any work ran (full queue, expired
	// deadline, draining server).
	Shed uint64
	// TimedOut counts admitted queries canceled mid-analysis by their
	// deadline or client.
	TimedOut uint64
	// Degraded counts queries served on a fallback path.
	Degraded uint64
	// Evicted counts result cache entries dropped for memory budget.
	Evicted uint64
}

// Snapshot returns the current counter values; a nil Stats reads as zero.
func (s *Stats) Snapshot() StatsSnapshot {
	if s == nil {
		return StatsSnapshot{}
	}
	return StatsSnapshot{
		MGSetupFailures: s.mgSetupFailures.Load(),
		SolveRetries:    s.solveRetries.Load(),
		PanicsContained: s.panicsContained.Load(),
		Canceled:        s.canceled.Load(),
		Admitted:        s.admitted.Load(),
		Shed:            s.shed.Load(),
		TimedOut:        s.timedOut.Load(),
		Degraded:        s.degraded.Load(),
		Evicted:         s.evicted.Load(),
	}
}

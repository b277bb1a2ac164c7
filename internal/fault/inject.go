package fault

import "sync/atomic"

// Injector is a set of deterministic fault-injection probe points. The zero
// value (and a nil *Injector) injects nothing; tests arm exactly the faults
// they want and wire the injector into thermal.Config / flow.Config before
// the first analysis. Determinism comes from counters, not randomness: "the
// Nth CG solve" is the Nth call against this injector, shared across every
// solver it is wired into, so with a sequential pipeline (Workers=1, or
// probing solve 1 — always the baseline) the probed site is exactly
// reproducible.
//
// All probe methods are nil-safe and safe for concurrent use.
type Injector struct {
	// FailCGSolveN makes the preconditioned attempt of the Nth (1-based)
	// thermal CG solve report ErrNotConverged without running it, which
	// engages the solver's Jacobi retry. Zero disables.
	FailCGSolveN int
	// FailRetry additionally fails the Jacobi retry of that same solve, so
	// the ErrNotConverged surfaces through the pipeline instead of being
	// absorbed by the degradation.
	FailRetry bool
	// StallCGSolveN makes the Nth (1-based) thermal CG solve block until its
	// context is canceled (it then reports ErrCanceled). With a context that
	// never fires the solve blocks forever — always pair this probe with a
	// cancelable context. Zero disables.
	StallCGSolveN int
	// PanicCGSolveN makes the Nth (1-based) thermal CG solve panic inside a
	// pool task, exercising the panic-containment path. Zero disables.
	PanicCGSolveN int
	// CorruptPowerW, when nonzero, adds this many watts to the first cell of
	// the first power map built through the flow — a deliberate corruption
	// the cross-implementation equality checks must catch.
	CorruptPowerW float64
	// StallAnalyzeN makes the first N (1-based ordinals 1..N) flow analyses
	// through this injector block until their context is canceled (they then
	// report ErrCanceled). Stalling a prefix rather than a single ordinal is
	// what lets the service chaos harness create deterministic overload: the
	// first N admitted queries park in their analysis, occupying every
	// in-flight slot, until their deadlines fire. With a context that never
	// fires a stalled analysis blocks forever — always pair this probe with
	// cancelable contexts. Zero disables.
	StallAnalyzeN int
	// FailAdmitN makes the first N (1-based ordinals 1..N) admission
	// attempts against this injector report a full queue, so the query is
	// shed before any work runs. It drives the service layer's load-shedding
	// path deterministically, without needing real queue pressure. Zero
	// disables.
	FailAdmitN int

	solves    atomic.Int64
	powerMaps atomic.Int64
	analyses  atomic.Int64
	admits    atomic.Int64
}

// NextSolve advances and returns the 1-based thermal-solve ordinal; 0 from a
// nil injector.
func (in *Injector) NextSolve() int {
	if in == nil {
		return 0
	}
	return int(in.solves.Add(1))
}

// FailSolve reports whether solve number n should report non-convergence on
// the given attempt (0 = the preconditioned attempt, 1 = the Jacobi retry).
func (in *Injector) FailSolve(n, attempt int) bool {
	if in == nil || in.FailCGSolveN == 0 || n != in.FailCGSolveN {
		return false
	}
	return attempt == 0 || in.FailRetry
}

// StallSolve reports whether solve number n should block until cancellation.
func (in *Injector) StallSolve(n int) bool {
	return in != nil && in.StallCGSolveN != 0 && n == in.StallCGSolveN
}

// PanicSolve reports whether solve number n should panic inside a pool task.
func (in *Injector) PanicSolve(n int) bool {
	return in != nil && in.PanicCGSolveN != 0 && n == in.PanicCGSolveN
}

// NextAnalyze advances and returns the 1-based flow-analysis ordinal; 0 from
// a nil injector.
func (in *Injector) NextAnalyze() int {
	if in == nil {
		return 0
	}
	return int(in.analyses.Add(1))
}

// StallAnalyze reports whether analysis number n should block until its
// context is canceled (n within the armed 1..StallAnalyzeN prefix).
func (in *Injector) StallAnalyze(n int) bool {
	return in != nil && in.StallAnalyzeN != 0 && n >= 1 && n <= in.StallAnalyzeN
}

// FailAdmit advances the admission ordinal and reports whether this
// admission attempt should be refused as if the queue were full (the attempt
// falls within the armed 1..FailAdmitN prefix). Unlike the other probes it
// advances and tests in one call: admission sites have no use for the
// ordinal beyond the decision.
func (in *Injector) FailAdmit() bool {
	if in == nil || in.FailAdmitN == 0 {
		return false
	}
	return int(in.admits.Add(1)) <= in.FailAdmitN
}

// CorruptPower applies the power-map corruption probe to vals (watts per
// grid cell) and reports whether it fired; only the first map built through
// the injector is corrupted.
func (in *Injector) CorruptPower(vals []float64) bool {
	if in == nil || in.CorruptPowerW == 0 || len(vals) == 0 {
		return false
	}
	if in.powerMaps.Add(1) != 1 {
		return false
	}
	vals[0] += in.CorruptPowerW
	return true
}

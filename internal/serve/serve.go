// Package serve is the analysis-as-a-service layer: a long-running HTTP/JSON
// query server that loads designs once, keeps their flow.Flow instances
// resident (cached baselines, solver pools, activity) and answers concurrent
// what-if queries — analyze at a utilization, apply an ERI or HW transform,
// run a small efficiency sweep — with robustness as the headline feature:
//
//   - Per-design admission control: a bounded number of in-flight queries
//     plus a bounded queue. A query that cannot even be queued is shed with
//     503 + Retry-After, and a queued query whose deadline expires before a
//     slot frees is shed without ever starting.
//   - Per-request deadlines propagated as contexts into flow.AnalyzeWithCtx
//     and core.SweepEfficiencyCtx, so an abandoned or timed-out request
//     cancels its CG iterations within milliseconds instead of wasting a
//     solver on an answer nobody will read.
//   - One flow per design, its thermal solver configuration fixed at
//     AddDesign. The solver's own retry is the only degraded mode: a
//     non-converged solve is retried once on Jacobi with a raised budget,
//     and /statz counts it. A solve that fails both ways answers 500
//     not-converged.
//   - An LRU of query results under a configurable memory budget. It holds
//     the *Result summaries served to clients, keyed by the canonical
//     query, and charges each at the MemoryBytes of the flow.Analysis that
//     produced it. Eviction only ever forces a recompute (the query reruns
//     from the resident baseline, bit-identical); it can never produce a
//     wrong answer.
//   - Graceful drain: BeginDrain stops admissions (readyz flips to 503),
//     in-flight queries get up to a drain timeout to finish, stragglers are
//     then canceled through their contexts. Close then only cancels the base
//     context: a resident flow holds no goroutines between queries.
//
// Every error response carries the fault-taxonomy category of its cause, and
// every admission decision and solver degradation is counted in the
// per-design fault.Stats exposed on /statz.
//
// The query execution itself (Exec) is a pure function of the resident flow
// and the query, which is what the chaos harness exploits: any completed
// response must be bit-identical to a direct flow.AnalyzeWithCtx call for
// the same query on an equivalently configured flow.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"thermplace/internal/bench"
	"thermplace/internal/fault"
	"thermplace/internal/flow"
	"thermplace/internal/netlist"
)

// Config tunes the service layer. The zero value of every knob selects the
// production default documented on it.
type Config struct {
	// MaxInFlight bounds the queries of one design that execute
	// concurrently. Zero means 4; AddDesign rejects a negative bound.
	MaxInFlight int
	// MaxQueue bounds the queries of one design waiting for an in-flight
	// slot; a query arriving beyond it is shed immediately. Zero means 16;
	// AddDesign rejects a negative bound.
	MaxQueue int
	// DefaultDeadline is the per-request deadline applied when the client
	// does not send one (deadline_ms query parameter). Zero means 30s;
	// negative means no default deadline.
	DefaultDeadline time.Duration
	// CacheBytes is the per-design memory budget of the result LRU,
	// charged in flow.Analysis.MemoryBytes. Zero means 64 MiB; negative
	// disables caching.
	CacheBytes int64
}

func (c Config) normalized() Config {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 4
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 16
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	return c
}

// design is one resident design: its flow and the per-design robustness
// state.
type design struct {
	name  string
	fl    *flow.Flow
	adm   *admission
	cache *resultCache
	stats *fault.Stats

	// baseline is the analysis of the AddDesign warm-up, the one the flow
	// caches; /statz reports its co-analysis scalars.
	baseline *flow.Analysis
}

// Server is the query server. Designs are registered with AddDesign before
// serving; Handler returns the http.Handler wiring every endpoint.
type Server struct {
	cfg Config

	mu      sync.Mutex
	designs map[string]*design
	order   []string // registration order, for deterministic /statz output

	// base is canceled by hard drain (and Close); every request context is
	// linked to it so stragglers unwind when the drain timeout expires.
	base       context.Context
	cancelBase context.CancelFunc

	track tracker
}

// NewServer creates an empty server with the given configuration.
func NewServer(cfg Config) *Server {
	base, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:        cfg.normalized(),
		designs:    map[string]*design{},
		base:       base,
		cancelBase: cancel,
	}
}

// AddDesign registers a design under the given name and warms it up: the
// baseline placement and analysis are computed once, so every query that
// follows reuses the resident baseline (and its recorded warm-start field,
// which is what makes query results pure functions of their lineage). The
// injector, when non-nil, is wired into the flow's thermal config — note the
// warm-up itself consumes analysis ordinal 1 and solve ordinal 1, so probes
// armed afterwards count from ordinal 2.
func (s *Server) AddDesign(ctx context.Context, name string, net *netlist.Design, wl bench.Workload, fcfg flow.Config, inject *fault.Injector) error {
	if s.cfg.MaxInFlight < 0 || s.cfg.MaxQueue < 0 {
		return fmt.Errorf("serve: negative admission bound (MaxInFlight %d, MaxQueue %d)", s.cfg.MaxInFlight, s.cfg.MaxQueue)
	}
	stats := &fault.Stats{}
	fcfg.Thermal.Stats = stats
	fcfg.Thermal.Inject = inject
	d := &design{
		name:  name,
		fl:    flow.New(net, wl, fcfg),
		adm:   newAdmission(s.cfg.MaxInFlight, s.cfg.MaxQueue),
		cache: newResultCache(s.cfg.CacheBytes, stats),
		stats: stats,
	}
	baseline, err := d.fl.AnalyzeBaselineCtx(ctx)
	if err != nil {
		return err
	}
	d.baseline = baseline
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.designs[name]; dup {
		return &httpStatusError{status: http.StatusConflict, category: "duplicate-design", msg: "design " + name + " already registered"}
	}
	s.designs[name] = d
	s.order = append(s.order, name)
	return nil
}

// Designs returns the registered design names, in registration order.
func (s *Server) Designs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order...)
}

func (s *Server) design(name string) *design {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.designs[name]
}

// Draining reports whether admissions have stopped.
func (s *Server) Draining() bool { return s.track.isDraining() }

// BeginDrain stops admissions: every query arriving afterwards is shed with
// 503 and /readyz flips to 503. In-flight queries keep running. Idempotent.
func (s *Server) BeginDrain() { s.track.beginDrain() }

// Drain performs the full graceful shutdown: admissions stop, in-flight
// queries get up to timeout to finish, stragglers are then canceled through
// their contexts (every request context is linked to the server's base
// context) and awaited. It returns the number of queries that had to be
// canceled.
func (s *Server) Drain(timeout time.Duration) int {
	s.BeginDrain()
	idle := s.track.awaitIdle()
	select {
	case <-idle:
		return 0
	case <-time.After(timeout):
	}
	stragglers := s.track.inflight()
	s.cancelBase()
	<-idle
	return stragglers
}

// Close cancels the base context, which every request context is linked
// to. Call after Drain; queries issued after Close fail. The resident flows
// hold no goroutines, so there is nothing else to release.
func (s *Server) Close() { s.cancelBase() }

// tracker counts in-flight requests and gates admissions during drain. It
// replaces a sync.WaitGroup because Add-after-Wait is undefined there, while
// a drain must atomically flip "no new entries" and then wait.
type tracker struct {
	mu       sync.Mutex
	n        int
	draining bool
	idle     chan struct{}
}

// enter registers a request; false once draining (the request must be shed).
func (t *tracker) enter() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.draining {
		return false
	}
	t.n++
	return true
}

func (t *tracker) exit() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.n--
	if t.draining && t.n == 0 && t.idle != nil {
		close(t.idle)
		t.idle = nil
	}
}

func (t *tracker) isDraining() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.draining
}

func (t *tracker) inflight() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

func (t *tracker) beginDrain() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.draining {
		return
	}
	t.draining = true
	t.idle = make(chan struct{})
	if t.n == 0 {
		close(t.idle)
		t.idle = nil
	}
}

// awaitIdle returns a channel closed when the in-flight count reaches zero
// under drain (immediately when it already has).
func (t *tracker) awaitIdle() <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.idle == nil {
		done := make(chan struct{})
		close(done)
		return done
	}
	return t.idle
}

// InFlightRequests returns the number of requests currently tracked, from
// admission through response. A zero return is a quiescent point: the
// mutex-protected tracker gives the caller a happens-before edge over
// everything those requests did — which is what lets the chaos harness
// re-arm injector probe fields between phases without racing a straggling
// handler.
func (s *Server) InFlightRequests() int { return s.track.inflight() }

// StatsFor returns the fault/service counter snapshot of one design (zero
// snapshot for an unknown name).
func (s *Server) StatsFor(name string) fault.StatsSnapshot {
	if d := s.design(name); d != nil {
		return d.stats.Snapshot()
	}
	return fault.StatsSnapshot{}
}

// CacheBytesFor returns the current result-cache footprint of one
// design in bytes.
func (s *Server) CacheBytesFor(name string) int64 {
	if d := s.design(name); d != nil {
		return d.cache.footprint()
	}
	return 0
}

// sortedOverheads returns a copy of vs in ascending order (sweep canonical
// form, so equivalent queries share a cache key).
func sortedOverheads(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

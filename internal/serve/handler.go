package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// Handler returns the HTTP handler exposing the query server:
//
//	GET /analyze?design=D&util=0.7[&full=1][&deadline_ms=N]
//	GET /delta?design=D&strategy=eri&rows=4         (or overhead=0.1)
//	GET /delta?design=D&strategy=hw&overhead=0.16
//	GET /sweep?design=D&overheads=0.05,0.1,0.2[&adaptive=1][&grid_scale=N]
//	GET /healthz   process liveness (always 200 while serving)
//	GET /readyz    admission readiness (503 once draining)
//	GET /statz     per-design fault/service counters
//
// Every query endpoint accepts deadline_ms overriding the configured default
// deadline; 0 disables the deadline for that request.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/analyze", func(w http.ResponseWriter, r *http.Request) {
		s.serveQuery(w, r, KindAnalyze)
	})
	mux.HandleFunc("/delta", func(w http.ResponseWriter, r *http.Request) {
		kind := Kind(r.URL.Query().Get("strategy"))
		if kind != KindERI && kind != KindHW {
			s.writeError(w, &httpStatusError{
				status: http.StatusBadRequest, category: "bad-request",
				msg: "strategy must be eri or hw",
			})
			return
		}
		s.serveQuery(w, r, kind)
	})
	mux.HandleFunc("/sweep", func(w http.ResponseWriter, r *http.Request) {
		s.serveQuery(w, r, KindSweep)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("/statz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Statz())
	})
	return mux
}

// serveQuery is the shared request path of every query endpoint: resolve the
// design, parse, admit, execute, classify.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, kind Kind) {
	name := r.URL.Query().Get("design")
	d := s.design(name)
	if d == nil {
		s.writeError(w, &httpStatusError{
			status: http.StatusNotFound, category: "unknown-design",
			msg: "design " + strconv.Quote(name) + " not registered",
		})
		return
	}
	q, err := ParseQuery(kind, r.URL.Query())
	if err != nil {
		s.writeError(w, err)
		return
	}

	// Track the request for drain accounting; once draining, shed before any
	// work. The injected admission failure (Injector.FailAdmitN) sheds at
	// the same point, exercising the same client-visible path.
	if !s.track.enter() {
		d.stats.AddShed()
		s.writeError(w, &shedError{reason: ShedDraining})
		return
	}
	defer s.track.exit()
	if d.fcfg.Thermal.Inject.FailAdmit() {
		d.stats.AddShed()
		s.writeError(w, &shedError{reason: ShedInjected})
		return
	}

	// The request context carries the per-request deadline and is linked to
	// the server's base context, so a hard drain cancels every in-flight and
	// queued query without the handler polling anything.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.base, cancel)
	defer stop()
	deadline := s.cfg.DefaultDeadline
	if v := r.URL.Query().Get("deadline_ms"); v != "" {
		ms, perr := strconv.Atoi(v)
		if perr != nil || ms < 0 {
			s.writeError(w, &httpStatusError{
				status: http.StatusBadRequest, category: "bad-request",
				msg: "parameter deadline_ms=" + strconv.Quote(v) + ": not a non-negative integer",
			})
			return
		}
		deadline = time.Duration(ms) * time.Millisecond
		if ms == 0 {
			deadline = -1 // explicit "no deadline"
		}
	}
	if deadline > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeout(ctx, deadline)
		defer cancelT()
	}

	release, err := d.adm.acquire(ctx, s.track.isDraining)
	if err != nil {
		// Never started: shed, with Retry-After as the backoff hint.
		d.stats.AddShed()
		s.writeError(w, err)
		return
	}
	defer release()
	d.stats.AddAdmitted()

	key := q.Key()
	if res := d.cache.get(key); res != nil {
		res.Design = d.name
		writeJSON(w, http.StatusOK, res)
		return
	}

	primary, probe := d.brk.route()
	fl := d.primary
	if !primary {
		fl = d.jacobiFallback()
		d.stats.AddDegraded()
	}
	res, cost, err := Exec(ctx, fl, q)
	d.brk.record(primary, probe, err)
	if err != nil {
		if _, body := classify(err); body.Category == "deadline" || body.Category == "canceled" {
			d.stats.AddTimedOut()
		}
		s.writeError(w, err)
		return
	}
	res.Design = d.name
	res.Degraded = !primary
	if ts := res.Triage; ts != nil {
		// Freshly computed adaptive sweep (cache hits returned above): fold
		// its triage work into the per-design /statz counters.
		d.adaptiveSweeps.Add(1)
		d.adaptiveCandidates.Add(int64(ts.Candidates))
		d.adaptiveTriaged.Add(int64(ts.Candidates - ts.Survivors))
		d.adaptiveExact.Add(int64(ts.ExactSolves))
	}
	if primary {
		// Degraded results are never cached: once the breaker closes, the
		// primary's bit-exact answer must not be shadowed by a Jacobi one.
		d.cache.put(key, res, cost)
	}
	writeJSON(w, http.StatusOK, res)
}

// DesignStatz is the /statz entry of one design.
type DesignStatz struct {
	Design string `json:"design"`
	// Breaker is the circuit-breaker state: closed, open or half-open.
	Breaker string `json:"breaker"`
	// CacheBytes is the accounted footprint of the result LRU.
	CacheBytes int64 `json:"cache_bytes"`
	// CacheEntries is the number of resident cached results.
	CacheEntries int `json:"cache_entries"`
	// InFlight and Queued are the instantaneous admission-controller gauges.
	InFlight int   `json:"in_flight"`
	Queued   int64 `json:"queued"`

	// Baseline co-analysis scalars captured at warm-up: temperature-derated
	// timing and routing congestion of the resident baseline. Zero when the
	// design's flow runs with co-analysis off.
	BaselineCriticalPathPs float64 `json:"baseline_critical_path_ps"`
	BaselineWorstSlackPs   float64 `json:"baseline_worst_slack_ps"`
	BaselineHPWLUm         float64 `json:"baseline_hpwl_um"`
	BaselineOverflows      int     `json:"baseline_congestion_overflows"`

	// Adaptive-sweep triage counters, accumulated across freshly computed
	// adaptive sweep queries: how many grid candidates the coarse phase saw,
	// how many it pruned before the exact phase, and how many exact analyses
	// were actually paid for.
	AdaptiveSweeps     int64 `json:"adaptive_sweeps"`
	AdaptiveCandidates int64 `json:"adaptive_candidates"`
	AdaptiveTriaged    int64 `json:"adaptive_triaged"`
	AdaptiveExact      int64 `json:"adaptive_exact_solves"`

	// Counter semantics are documented on fault.StatsSnapshot: Admitted,
	// Shed, TimedOut, Degraded, Evicted are the service counters; the
	// solver-level MGSetupFailures, SolveRetries, PanicsContained and
	// Canceled tell the degradation story underneath them.
	MGSetupFailures uint64 `json:"mg_setup_failures"`
	SolveRetries    uint64 `json:"solve_retries"`
	PanicsContained uint64 `json:"panics_contained"`
	Canceled        uint64 `json:"canceled"`
	Admitted        uint64 `json:"admitted"`
	Shed            uint64 `json:"shed"`
	TimedOut        uint64 `json:"timed_out"`
	Degraded        uint64 `json:"degraded"`
	Evicted         uint64 `json:"evicted"`
}

// StatzResponse is the /statz payload.
type StatzResponse struct {
	Draining bool          `json:"draining"`
	Designs  []DesignStatz `json:"designs"`
}

// Statz assembles the observability snapshot, designs in registration order.
func (s *Server) Statz() StatzResponse {
	out := StatzResponse{Draining: s.Draining()}
	for _, name := range s.Designs() {
		d := s.design(name)
		if d == nil {
			continue
		}
		snap := d.stats.Snapshot()
		out.Designs = append(out.Designs, DesignStatz{
			Design:                 d.name,
			Breaker:                d.brk.current(),
			CacheBytes:             d.cache.footprint(),
			CacheEntries:           d.cache.entriesLen(),
			InFlight:               d.adm.inFlight(),
			Queued:                 d.adm.inQueue(),
			BaselineCriticalPathPs: d.baseCritPathPs,
			BaselineWorstSlackPs:   d.baseWorstSlackPs,
			BaselineHPWLUm:         d.baseHPWL,
			BaselineOverflows:      d.baseOverflows,
			AdaptiveSweeps:         d.adaptiveSweeps.Load(),
			AdaptiveCandidates:     d.adaptiveCandidates.Load(),
			AdaptiveTriaged:        d.adaptiveTriaged.Load(),
			AdaptiveExact:          d.adaptiveExact.Load(),
			MGSetupFailures:        snap.MGSetupFailures,
			SolveRetries:           snap.SolveRetries,
			PanicsContained:        snap.PanicsContained,
			Canceled:               snap.Canceled,
			Admitted:               snap.Admitted,
			Shed:                   snap.Shed,
			TimedOut:               snap.TimedOut,
			Degraded:               snap.Degraded,
			Evicted:                snap.Evicted,
		})
	}
	return out
}

// writeError classifies the error and writes the JSON error body; shed
// responses carry the Retry-After backoff hint.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, body := classify(err)
	if isShed(err) {
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	}
	writeJSON(w, status, body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The encoder's error is unreportable at this point (headers are gone);
	// a failed write only ever means the client went away.
	_ = json.NewEncoder(w).Encode(v)
}

package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"time"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/fault"
	"thermplace/internal/flow"
	"thermplace/internal/serve"
)

// LoadChaosOptions tunes the query-server load/chaos suite.
type LoadChaosOptions struct {
	// Families are the scenario families loaded as resident designs. Nil
	// means {paper-synth9, hotspot-cluster}.
	Families []bench.Family
	// Seed is the scenario generation seed. Zero means 7.
	Seed int64
	// Cells is the approximate cell count per design. Zero means 800.
	Cells int
	// Grid is the square thermal-grid resolution. Zero means 16.
	Grid int
	// SimCycles is the random-vector simulation depth. Zero means 32.
	SimCycles int
	// Clients is the number of concurrent clients per design. Zero means 4.
	Clients int
	// MaxInFlight / MaxQueue are the per-design admission bounds. Zeros
	// mean 2 / 2 — deliberately tight, so the storm actually sheds.
	MaxInFlight int
	MaxQueue    int
	// DeadlineMS is the per-query deadline the clients send. Zero means 1500.
	DeadlineMS int
	// DrainTimeout bounds the graceful drain before stragglers are canceled.
	// Zero means 400ms.
	DrainTimeout time.Duration
}

func (o LoadChaosOptions) normalized() LoadChaosOptions {
	if len(o.Families) == 0 {
		o.Families = []bench.Family{bench.FamilyPaperSynth9, bench.FamilyHotspotCluster}
	}
	if o.Seed == 0 {
		o.Seed = 7
	}
	if o.Cells == 0 {
		o.Cells = 800
	}
	if o.Grid == 0 {
		o.Grid = 16
	}
	if o.SimCycles == 0 {
		o.SimCycles = 32
	}
	if o.Clients == 0 {
		o.Clients = 4
	}
	if o.MaxInFlight == 0 {
		o.MaxInFlight = 2
	}
	if o.MaxQueue == 0 {
		o.MaxQueue = 2
	}
	if o.DeadlineMS == 0 {
		o.DeadlineMS = 1500
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = 400 * time.Millisecond
	}
	return o
}

// chaosQuery is one entry of the per-design query set the clients hammer.
type chaosQuery struct {
	path   string // endpoint, e.g. "/analyze"
	params string // canonical parameters, e.g. "util=0.7"
	query  serve.Query
}

// chaosTally accumulates client-side observations under a lock.
type chaosTally struct {
	mu         sync.Mutex
	completed  int // 200s
	cacheHits  int
	shed       map[string]int // 503 categories
	deadlines  int            // 504s
	faulted    map[string]int // 500 categories
	unexpected []string
	mismatches []string
}

func (t *chaosTally) unexpectedf(format string, a ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.unexpected) < 8 {
		t.unexpected = append(t.unexpected, fmt.Sprintf(format, a...))
	}
}

func (t *chaosTally) mismatchf(format string, a ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.mismatches) < 8 {
		t.mismatches = append(t.mismatches, fmt.Sprintf(format, a...))
	}
}

// RunLoadChaos drives the query server the way a hostile production day
// would: for every design, N concurrent clients hammer a mixed query set
// through tight admission bounds while deterministic faults are injected
// (stalled analyses, shed admissions, a non-converging solve), a laggard
// client asks for impossible deadlines, a client disconnects mid-flight, and
// finally a drain begins while stalled queries are still parked in-flight.
//
// It verifies the service contracts end to end:
//
//   - every completed (200) response is bit-identical — == on every float —
//     to a direct serve.Exec / flow.AnalyzeWithCtx on a fresh reference flow;
//   - every non-200 carries a recognized fault category, and shed queries
//     never started (admission counters stay consistent);
//   - the result cache stays inside its byte budget (twice the costliest
//     reference result) and evicts under pressure rather than growing;
//   - after BeginDrain no query is admitted, stragglers are canceled within
//     the drain timeout, and the goroutine count settles back to baseline.
func RunLoadChaos(opts LoadChaosOptions) (*Report, error) {
	opts = opts.normalized()
	lib := celllib.Default65nm()
	baseGoroutines := runtime.NumGoroutine()

	type residentDesign struct {
		name   string
		gen    *bench.Generated
		fcfg   flow.Config
		inject *fault.Injector
		ref    *flow.Flow // clean reference for bit-identity
	}
	var designs []*residentDesign
	var srv *serve.Server
	closeAll := func() {
		if srv != nil {
			srv.Close()
		}
	}

	rep := &Report{}
	for i, fam := range opts.Families {
		sc := bench.Scenario{Family: fam, Seed: opts.Seed, TargetCells: opts.Cells}
		gen, err := sc.Generate(lib)
		if err != nil {
			closeAll()
			return rep, fmt.Errorf("harness: generating %s: %w", fam, err)
		}
		if i == 0 {
			rep.Scenario = gen.Scenario
			rep.Cells = gen.Design.NumInstances()
			rep.Units = len(gen.Config.Units)
		}
		fcfg := flow.ScenarioConfig(gen.Scenario)
		fcfg.SimCycles = opts.SimCycles
		fcfg.RefinePasses = 0
		fcfg.Thermal.NX, fcfg.Thermal.NY = opts.Grid, opts.Grid
		designs = append(designs, &residentDesign{
			name:   string(fam),
			gen:    gen,
			fcfg:   fcfg,
			inject: &fault.Injector{}, // wired at load, armed after warm-up
			ref:    flow.New(gen.Design, gen.Workload, fcfg),
		})
	}

	// The per-design query set: mixed kinds, including the baseline
	// fast path and a small sweep.
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	querySet := func(d *residentDesign) []chaosQuery {
		baseUtil := d.fcfg.Utilization
		return []chaosQuery{
			{"/analyze", "util=" + ff(baseUtil), serve.Query{Kind: serve.KindAnalyze, Utilization: baseUtil}},
			{"/analyze", "util=0.7", serve.Query{Kind: serve.KindAnalyze, Utilization: 0.7}},
			{"/analyze", "util=0.78", serve.Query{Kind: serve.KindAnalyze, Utilization: 0.78}},
			{"/delta", "strategy=eri&rows=2", serve.Query{Kind: serve.KindERI, Rows: 2}},
			{"/delta", "strategy=hw&overhead=0.25", serve.Query{Kind: serve.KindHW, Overhead: 0.25}},
			{"/sweep", "overheads=0.3", serve.Query{Kind: serve.KindSweep, Overheads: []float64{0.3}}},
		}
	}

	// Reference results, computed directly on the clean flows: the values
	// every completed server response must match bit-for-bit. Queries whose
	// reference itself fails (e.g. HW with no hotspots) are dropped from the
	// set — the server would report the same typed failure.
	expected := map[string]*serve.Result{} // design + path + params
	var queries = map[string][]chaosQuery{}
	var maxCost int64
	for _, d := range designs {
		for _, cq := range querySet(d) {
			want, cost, err := serve.Exec(context.Background(), d.ref, cq.query)
			if err != nil {
				continue
			}
			queries[d.name] = append(queries[d.name], cq)
			expected[d.name+cq.path+"?"+cq.params] = want
			maxCost = max(maxCost, cost)
		}
		if len(queries[d.name]) < 4 {
			closeAll()
			return rep, fmt.Errorf("harness: %s: only %d of %d reference queries computable", d.name, len(queries[d.name]), len(querySet(d)))
		}
	}
	rep.pass("reference-queries", fmt.Sprintf("%d designs x %d query kinds solved directly", len(designs), len(queries[designs[0].name])))

	// The cache budget holds two of the costliest results, so the storm's
	// distinct queries must evict.
	cacheBytes := 2 * maxCost
	srv = serve.NewServer(serve.Config{
		MaxInFlight: opts.MaxInFlight,
		MaxQueue:    opts.MaxQueue,
		CacheBytes:  cacheBytes,
	})
	for _, d := range designs {
		if err := srv.AddDesign(context.Background(), d.name, d.gen.Design, d.gen.Workload, d.fcfg, d.inject); err != nil {
			closeAll()
			return rep, fmt.Errorf("harness: loading %s: %w", d.name, err)
		}
	}

	// Cross-check the execution path itself: serve.Exec's analyze result
	// must equal a direct flow.ReflowAt + AnalyzeWithCtx — the plain pipeline a
	// non-server caller would run.
	{
		d := designs[0]
		key := d.name + "/analyze?util=0.7"
		p, _, err := d.ref.ReflowAt(0.7)
		if err != nil {
			closeAll()
			return rep, fmt.Errorf("harness: %s: direct reflow: %w", d.name, err)
		}
		an, err := d.ref.AnalyzeWithCtx(context.Background(), p, flow.AnalyzeOptions{})
		if err != nil {
			closeAll()
			return rep, fmt.Errorf("harness: %s: direct AnalyzeWithCtx: %w", d.name, err)
		}
		if want := expected[key]; want == nil || an.Thermal.PeakRise != want.PeakRiseK || an.Power.Total() != want.TotalPowerW {
			closeAll()
			return rep, fmt.Errorf("harness: %s: serve.Exec differs from direct AnalyzeWithCtx: rise %v vs %v",
				d.name, want.PeakRiseK, an.Thermal.PeakRise)
		}
		rep.pass("exec-vs-direct-analyze", fmt.Sprintf("peak rise %.6f K bit-identical", an.Thermal.PeakRise))
	}

	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()
	tally := &chaosTally{shed: map[string]int{}, faulted: map[string]int{}}

	// Arm the chaos. The injector pointers were wired before warm-up (which
	// consumed analysis ordinal 1 and solve ordinal 1); arming happens
	// strictly before the client goroutines start, so the happens-before edge
	// is the spawn. Design 0: the next two analyses (prefix ordinals 2..3)
	// stall until their deadline cancels them — two, because the mid-flight
	// disconnect client can consume at most one of them invisibly. Design 1:
	// the first three admissions are shed, and solve ordinal 3 (the second
	// post-warm-up solve) fails CG and its Jacobi retry, surfacing a typed
	// not-converged failure. The misbehaving clients below are confined to
	// design 0 so that ordinal is always drawn by a client with a generous
	// deadline: the failure must reach a tallied response, not vanish into a
	// canceled solve or a tolerated transport error.
	designs[0].inject.StallAnalyzeN = 3
	if len(designs) > 1 {
		designs[1].inject.FailAdmitN = 3
		designs[1].inject.FailCGSolveN = 3
		designs[1].inject.FailRetry = true
	}

	do := func(d *residentDesign, cq chaosQuery, deadlineMS int) int {
		url := ts.URL + cq.path + "?design=" + d.name + "&" + cq.params + "&deadline_ms=" + strconv.Itoa(deadlineMS)
		resp, err := client.Get(url)
		if err != nil {
			tally.unexpectedf("%s: transport error: %v", url, err)
			return 0
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			var res serve.Result
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				tally.unexpectedf("%s: bad 200 body: %v", url, err)
				return resp.StatusCode
			}
			want := expected[d.name+cq.path+"?"+cq.params]
			if want == nil {
				tally.unexpectedf("%s: no reference for completed query", url)
				return resp.StatusCode
			}
			if res.PeakRiseK != want.PeakRiseK || res.TempReduction != want.TempReduction ||
				res.TotalPowerW != want.TotalPowerW || res.AreaOverhead != want.AreaOverhead ||
				res.Utilization != want.Utilization || len(res.Points) != len(want.Points) {
				tally.mismatchf("%s: served %+v, reference %+v", url, res, want)
				return resp.StatusCode
			}
			for i := range want.Points {
				if res.Points[i] != want.Points[i] {
					tally.mismatchf("%s: sweep point %d: served %+v, reference %+v", url, i, res.Points[i], want.Points[i])
					return resp.StatusCode
				}
			}
			tally.mu.Lock()
			tally.completed++
			if res.Cached {
				tally.cacheHits++
			}
			tally.mu.Unlock()
		default:
			var eb struct {
				Category string `json:"category"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Category == "" {
				tally.unexpectedf("%s: status %d without a fault category", url, resp.StatusCode)
				return resp.StatusCode
			}
			tally.mu.Lock()
			switch resp.StatusCode {
			case http.StatusServiceUnavailable:
				tally.shed[eb.Category]++
			case http.StatusGatewayTimeout:
				tally.deadlines++
			case http.StatusInternalServerError:
				tally.faulted[eb.Category]++
			default:
				if len(tally.unexpected) < 8 {
					tally.unexpected = append(tally.unexpected, fmt.Sprintf("%s: unexpected status %d (%s)", url, resp.StatusCode, eb.Category))
				}
			}
			tally.mu.Unlock()
		}
		return resp.StatusCode
	}

	// Phase 1 — the storm: N clients per design, each walking the query set
	// from a different offset. Design 0 additionally gets a laggard client
	// demanding a 1ms deadline and one client that disconnects mid-flight
	// (the misbehavior stays off design 1 — see the arming comment above).
	var wg sync.WaitGroup
	for _, d := range designs {
		qs := queries[d.name]
		for c := 0; c < opts.Clients; c++ {
			wg.Add(1)
			go func(d *residentDesign, offset int) {
				defer wg.Done()
				for k := 0; k < len(qs); k++ {
					do(d, qs[(offset+k)%len(qs)], opts.DeadlineMS)
				}
			}(d, c)
		}
	}
	wg.Add(1)
	go func(d *residentDesign) { // laggard: every deadline already hopeless
		defer wg.Done()
		qs := queries[d.name]
		for k := 0; k < 3; k++ {
			do(d, qs[k%len(qs)], 1)
		}
	}(designs[0])
	wg.Add(1)
	go func(d *residentDesign) { // disconnects mid-flight
		defer wg.Done()
		cctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		req, _ := http.NewRequestWithContext(cctx, http.MethodGet,
			ts.URL+"/analyze?design="+d.name+"&util=0.74", nil)
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
		}
	}(designs[0])
	wg.Wait()

	// Phase 2 — sequential settle pass: the full-coverage bit-identity check.
	// Contention is over, but a leftover injected fault can still land here
	// (the doubly-failed solve draws whichever query reaches that solve
	// ordinal), so each query gets a bounded number of attempts: the probes
	// are finite prefixes, so a retry must reach a clean 200.
	for _, d := range designs {
		for _, cq := range queries[d.name] {
			ok := false
			for attempt := 0; attempt < 3 && !ok; attempt++ {
				ok = do(d, cq, 10_000) == http.StatusOK
			}
			if !ok {
				closeAll()
				return rep, fmt.Errorf("harness: settle: %s%s?%s failed 3 attempts; unexpected=%v mismatches=%v",
					d.name, cq.path, cq.params, tally.unexpected, tally.mismatches)
			}
		}
	}
	if len(tally.mismatches) > 0 {
		closeAll()
		return rep, fmt.Errorf("harness: served responses diverged from direct execution: %v", tally.mismatches)
	}
	if len(tally.unexpected) > 0 {
		closeAll()
		return rep, fmt.Errorf("harness: unexpected client observations: %v", tally.unexpected)
	}
	rep.pass("storm-bit-identity", fmt.Sprintf("%d completed responses bit-identical (%d cache hits, %d shed, %d deadline-expired)",
		tally.completed, tally.cacheHits, tallySum(tally.shed), tally.deadlines))

	// The armed solve fault may not have been drawn yet: after its first
	// computes the storm can satisfy design 1 from cache, and cache hits
	// consume no solve ordinals. In that case the ordinal sits at exactly 2
	// (warm-up plus one compute), so a single fresh, uncached analyze — which
	// consumes exactly one solve ordinal — must draw ordinal 3 and report the
	// typed failure.
	if len(designs) > 1 && tally.faulted["not-converged"] == 0 {
		do(designs[1], chaosQuery{"/analyze", "util=0.69",
			serve.Query{Kind: serve.KindAnalyze, Utilization: 0.69}}, 10_000)
	}

	// The injected faults must all have surfaced: stalls became deadline
	// expiries, shed admissions were counted, and the doubly-failed solve
	// surfaced exactly once as a typed not-converged failure.
	if tally.deadlines == 0 {
		closeAll()
		return rep, fmt.Errorf("harness: stalled analyses produced no deadline expiries")
	}
	snap0 := srv.StatsFor(designs[0].name)
	if snap0.TimedOut == 0 {
		closeAll()
		return rep, fmt.Errorf("harness: timed-out queries not recorded in stats: %+v", snap0)
	}
	if len(designs) > 1 {
		snap1 := srv.StatsFor(designs[1].name)
		if snap1.Shed < 3 {
			closeAll()
			return rep, fmt.Errorf("harness: injected admission failures not shed: %+v", snap1)
		}
		if tally.faulted["not-converged"] != 1 {
			closeAll()
			return rep, fmt.Errorf("harness: injected solver fault surfaced %d times, want 1 (faulted=%v)",
				tally.faulted["not-converged"], tally.faulted)
		}
	}
	rep.pass("injected-faults-surfaced", fmt.Sprintf("deadlines=%d shed=%v faulted=%v",
		tally.deadlines, tally.shed, tally.faulted))

	// Bounded memory: every design's cache stayed inside its budget, and the
	// distinct-query pressure forced evictions somewhere (the budget is
	// deliberately smaller than the working set).
	evictions := uint64(0)
	for _, d := range designs {
		if got := srv.CacheBytesFor(d.name); got > cacheBytes {
			closeAll()
			return rep, fmt.Errorf("harness: %s: cache footprint %d exceeds budget %d", d.name, got, cacheBytes)
		}
		evictions += srv.StatsFor(d.name).Evicted
	}
	if evictions == 0 {
		closeAll()
		return rep, fmt.Errorf("harness: no evictions under a %d-byte budget; memory bounding unexercised", cacheBytes)
	}
	rep.pass("cache-budget-bounded", fmt.Sprintf("%d evictions, every footprint <= %d bytes", evictions, cacheBytes))

	// Phase 3 — drain while queries are parked in-flight. Every subsequent
	// analysis stalls (no deadline), so the drain must cancel them through
	// their contexts; nothing may be admitted after BeginDrain.
	//
	// The injector fields are plain ints, so re-arming requires a
	// happens-before edge over any straggling handler (the mid-flight
	// disconnect's handler can outlive its client): spin until the tracker
	// reports quiescence — its mutex is the edge.
	quiesce := time.Now().Add(5 * time.Second)
	for srv.InFlightRequests() != 0 {
		if time.Now().After(quiesce) {
			closeAll()
			return rep, fmt.Errorf("harness: server never quiesced before the drain phase (%d still in flight)", srv.InFlightRequests())
		}
		time.Sleep(2 * time.Millisecond)
	}
	designs[0].inject.StallAnalyzeN = 1 << 30
	preDrain := srv.StatsFor(designs[0].name).Admitted
	wantParked := uint64(opts.MaxInFlight)
	if wantParked > 3 {
		wantParked = 3
	}
	parked := make(chan int, 3)
	for k := 0; k < 3; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			resp, err := client.Get(ts.URL + "/analyze?design=" + designs[0].name +
				"&util=0.8" + strconv.Itoa(k+1) + "&deadline_ms=0")
			if err != nil {
				parked <- -1
				return
			}
			resp.Body.Close()
			parked <- resp.StatusCode
		}(k)
	}
	// Wait until the stalled queries hold every in-flight slot.
	deadline := time.Now().Add(5 * time.Second)
	for srv.StatsFor(designs[0].name).Admitted < preDrain+wantParked {
		if time.Now().After(deadline) {
			closeAll()
			return rep, fmt.Errorf("harness: stalled queries never occupied the in-flight slots")
		}
		time.Sleep(2 * time.Millisecond)
	}
	admittedBefore := uint64(0)
	for _, d := range designs {
		admittedBefore += srv.StatsFor(d.name).Admitted
	}

	srv.BeginDrain()
	// A query after BeginDrain is shed without being admitted.
	resp, err := client.Get(ts.URL + "/analyze?design=" + designs[0].name + "&util=0.7")
	if err != nil {
		closeAll()
		return rep, fmt.Errorf("harness: post-drain probe: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		closeAll()
		return rep, fmt.Errorf("harness: post-drain query got status %d, want 503", resp.StatusCode)
	}

	t0 := time.Now()
	stragglers := srv.Drain(opts.DrainTimeout)
	drainTook := time.Since(t0)
	if stragglers == 0 {
		closeAll()
		return rep, fmt.Errorf("harness: drain reported no canceled stragglers despite parked queries")
	}
	if drainTook > opts.DrainTimeout+2*time.Second {
		closeAll()
		return rep, fmt.Errorf("harness: drain took %v (timeout %v): stragglers did not cancel", drainTook, opts.DrainTimeout)
	}
	wg.Wait()
	close(parked)
	for code := range parked {
		if code == http.StatusOK {
			closeAll()
			return rep, fmt.Errorf("harness: a parked query completed with 200 after a hard drain")
		}
	}
	admittedAfter := uint64(0)
	for _, d := range designs {
		admittedAfter += srv.StatsFor(d.name).Admitted
	}
	if admittedAfter != admittedBefore {
		closeAll()
		return rep, fmt.Errorf("harness: %d queries admitted after BeginDrain", admittedAfter-admittedBefore)
	}
	rep.pass("drain-contract", fmt.Sprintf("%d stragglers canceled in %v, zero post-drain admissions", stragglers, drainTook.Round(time.Millisecond)))

	ts.Close()
	closeAll()

	// Nothing may leak: client goroutines joined, handlers unwound, solver
	// pools closed.
	if err := waitGoroutines(baseGoroutines, 5*time.Second); err != nil {
		return rep, fmt.Errorf("harness: %w", err)
	}
	rep.pass("zero-goroutine-leak", fmt.Sprintf("settled at baseline %d goroutines", baseGoroutines))
	return rep, nil
}

func tallySum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/core"
	"thermplace/internal/fault"
	"thermplace/internal/flow"
)

func TestTrackerDrain(t *testing.T) {
	var tr tracker
	if !tr.enter() {
		t.Fatal("enter must succeed before drain")
	}
	tr.beginDrain()
	if tr.enter() {
		t.Fatal("enter must fail during drain")
	}
	idle := tr.awaitIdle()
	select {
	case <-idle:
		t.Fatal("idle fired with a request still in flight")
	case <-time.After(10 * time.Millisecond):
	}
	tr.exit()
	select {
	case <-idle:
	case <-time.After(time.Second):
		t.Fatal("idle did not fire after last exit")
	}
	// Idempotent drain on an idle tracker resolves immediately.
	tr.beginDrain()
	select {
	case <-tr.awaitIdle():
	case <-time.After(time.Second):
		t.Fatal("awaitIdle on an idle draining tracker must resolve immediately")
	}
}

func TestAdmissionBounds(t *testing.T) {
	a := newAdmission(1, 1)
	ctx := context.Background()

	rel1, err := a.acquire(ctx, nil)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}

	// Occupy the single queue slot with a waiter.
	waiterCtx, waiterCancel := context.WithCancel(ctx)
	defer waiterCancel()
	got := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rel, werr := a.acquire(waiterCtx, nil)
		if rel != nil {
			defer rel()
		}
		got <- werr
	}()
	for a.inQueue() == 0 {
		time.Sleep(time.Millisecond)
	}

	// Third query: queue full, shed immediately.
	var shed *shedError
	if _, err := a.acquire(ctx, nil); !errors.As(err, &shed) || shed.reason != ShedQueueFull {
		t.Fatalf("full queue must shed with %s, got %v", ShedQueueFull, err)
	}

	// The queued waiter's deadline expires: shed without starting.
	waiterCancel()
	if werr := <-got; !errors.As(werr, &shed) || shed.reason != ShedDeadline {
		t.Fatalf("expired queued query must shed with %s, got %v", ShedDeadline, werr)
	}
	wg.Wait()

	// An expired context never acquires, even with a free slot queued.
	rel1()
	expired, cancel := context.WithCancel(ctx)
	cancel()
	if rel, err := a.acquire(expired, nil); err == nil {
		rel()
		t.Fatal("expired context acquired a slot")
	}

	// Draining re-check after a queued wait sheds instead of starting.
	rel2, err := a.acquire(ctx, nil)
	if err != nil {
		t.Fatalf("re-acquire: %v", err)
	}
	drained := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rel, werr := a.acquire(ctx, func() bool { return true })
		if rel != nil {
			defer rel()
		}
		drained <- werr
	}()
	for a.inQueue() == 0 {
		time.Sleep(time.Millisecond)
	}
	rel2()
	if werr := <-drained; !errors.As(werr, &shed) || shed.reason != ShedDraining {
		t.Fatalf("queued query on a draining server must shed with %s, got %v", ShedDraining, werr)
	}
	wg.Wait()
}

func TestResultCacheLRU(t *testing.T) {
	stats := &fault.Stats{}
	c := newResultCache(100, stats)
	mk := func(k string) *Result { return &Result{Query: k} }

	c.put("a", mk("a"), 40)
	c.put("b", mk("b"), 40)
	if got := c.get("a"); got == nil || !got.Cached || got.Query != "a" {
		t.Fatalf("hit on a = %+v", got)
	}
	// Inserting c (40) exceeds the budget; b is now the LRU and must go.
	c.put("c", mk("c"), 40)
	if c.get("b") != nil {
		t.Fatal("b must have been evicted")
	}
	if c.get("a") == nil || c.get("c") == nil {
		t.Fatal("a and c must survive")
	}
	if ev := stats.Snapshot().Evicted; ev != 1 {
		t.Fatalf("evicted = %d, want 1", ev)
	}
	if c.footprint() != 80 {
		t.Fatalf("footprint = %d, want 80", c.footprint())
	}
	// The stored entry must not be contaminated by the hit's Cached flag.
	if ent := c.entries["a"].Value.(*cacheEntry); ent.res.Cached {
		t.Fatal("stored entry mutated by get")
	}
	// An entry larger than the whole budget is not cached.
	c.put("huge", mk("huge"), 101)
	if c.get("huge") != nil {
		t.Fatal("over-budget entry must not be cached")
	}
	// A disabled cache (negative budget) never stores.
	off := newResultCache(-1, stats)
	off.put("x", mk("x"), 1)
	if off.get("x") != nil {
		t.Fatal("disabled cache returned a hit")
	}
}

// Regression: a budget of 0 must behave as a disabled cache. Before the fix,
// zero-cost entries passed the `cost > budget` admission check and the
// byte-based eviction loop never fired, so the entry count (and the map/list
// overhead the byte accounting ignores) grew without bound.
func TestResultCacheZeroBudgetAdmitsNothing(t *testing.T) {
	stats := &fault.Stats{}
	c := newResultCache(0, stats)
	mk := func(k string) *Result { return &Result{Query: k} }
	for i := 0; i < 100; i++ {
		c.put("k"+strconv.Itoa(i), mk("x"), 0)
	}
	if n := c.entriesLen(); n != 0 {
		t.Fatalf("budget-0 cache holds %d entries, want 0", n)
	}
	if c.get("k0") != nil {
		t.Fatal("budget-0 cache returned a hit")
	}

	// Non-positive costs are rejected even on an enabled cache: they would
	// be unevictable by the byte accounting.
	on := newResultCache(100, stats)
	on.put("zero", mk("zero"), 0)
	on.put("neg", mk("neg"), -8)
	if n := on.entriesLen(); n != 0 {
		t.Fatalf("non-positive-cost entries admitted: %d resident", n)
	}
}

func TestQueryParseAndKey(t *testing.T) {
	q, err := ParseQuery(KindAnalyze, url.Values{"util": {"0.7"}, "full": {"1"}})
	if err != nil {
		t.Fatalf("parse analyze: %v", err)
	}
	if q.Key() != "analyze?util=0.7&full=1" {
		t.Fatalf("key = %q", q.Key())
	}
	// Sweep overheads are canonicalized by sorting: permutations share a key.
	q1, _ := ParseQuery(KindSweep, url.Values{"overheads": {"0.2,0.05"}})
	q2, _ := ParseQuery(KindSweep, url.Values{"overheads": {"0.05, 0.2"}})
	if q1.Key() != q2.Key() {
		t.Fatalf("permuted sweeps got different keys: %q vs %q", q1.Key(), q2.Key())
	}
	// A densified sweep keys apart from the plain one over the same
	// overheads: it measures a different grid. grid_scale=1 densifies
	// nothing, so it shares the plain key.
	qg, err := ParseQuery(KindSweep, url.Values{"overheads": {"0.05,0.2"}, "grid_scale": {"4"}})
	if err != nil {
		t.Fatalf("parse dense sweep: %v", err)
	}
	if qg.GridScale != 4 || qg.Key() != "sweep?overheads=0.05,0.2&grid_scale=4" {
		t.Fatalf("grid_scale=4 parses to %+v, key %q", qg, qg.Key())
	}
	q1g, err := ParseQuery(KindSweep, url.Values{"overheads": {"0.05,0.2"}, "grid_scale": {"1"}})
	if err != nil {
		t.Fatalf("parse grid_scale=1 sweep: %v", err)
	}
	if q1g.Key() != q2.Key() {
		t.Fatalf("grid_scale=1 keys as %q, the plain sweep as %q", q1g.Key(), q2.Key())
	}
	// An ERI query that names rows does not read its overhead, so the
	// overhead does not enter its key.
	qr, err := ParseQuery(KindERI, url.Values{"rows": {"4"}})
	if err != nil {
		t.Fatalf("parse eri: %v", err)
	}
	qo, err := ParseQuery(KindERI, url.Values{"rows": {"4"}, "overhead": {"0.1"}})
	if err != nil {
		t.Fatalf("parse eri with overhead: %v", err)
	}
	if qr.Key() != "eri?rows=4&overhead=0" || qo.Key() != qr.Key() {
		t.Fatalf("eri rows=4 keys as %q, with overhead=0.1 as %q; want both eri?rows=4&overhead=0", qr.Key(), qo.Key())
	}
	for _, c := range badQueries {
		if _, err := ParseQuery(c.kind, c.vals); err == nil {
			t.Fatalf("ParseQuery(%s, %v) accepted bad input", c.kind, c.vals)
		}
		var hse *httpStatusError
		if _, err := ParseQuery(c.kind, c.vals); !errors.As(err, &hse) || hse.status != http.StatusBadRequest || hse.category != "bad-request" {
			t.Fatalf("ParseQuery(%s, %v) error not a 400 bad-request: %v", c.kind, c.vals, err)
		}
	}
}

// badQueries are inputs ParseQuery must answer with a 400 bad-request.
var badQueries = []struct {
	kind Kind
	vals url.Values
}{
	{KindAnalyze, url.Values{"util": {"nope"}}},
	{KindAnalyze, url.Values{"util": {"1.5"}}},
	{KindAnalyze, url.Values{"util": {"NaN"}}},
	{KindAnalyze, url.Values{"util": {"-Inf"}}},
	{KindERI, url.Values{}},
	{KindERI, url.Values{"rows": {"-1"}}},
	{KindERI, url.Values{"overhead": {"NaN"}}},
	{KindERI, url.Values{"overhead": {"Inf"}}},
	{KindERI, url.Values{"rows": {"2"}, "overhead": {"NaN"}}},
	{KindHW, url.Values{"overhead": {"0"}}},
	{KindHW, url.Values{"overhead": {"NaN"}}},
	{KindHW, url.Values{"overhead": {"Inf"}}},
	{KindSweep, url.Values{"overheads": {"0.1,bogus"}}},
	{KindSweep, url.Values{"overheads": {"NaN"}}},
	{KindSweep, url.Values{"overheads": {"0.1,Inf"}}},
	{KindSweep, url.Values{"adaptive": {"1"}}},
	{KindSweep, url.Values{"adaptive": {"1"}, "grid_scale": {"3"}}},
	{KindSweep, url.Values{"grid_scale": {"0"}}},
	{Kind("mystery"), url.Values{}},
	// Over the query bounds.
	{KindERI, url.Values{"overhead": {"3.5"}}},
	{KindHW, url.Values{"overhead": {"1e300"}}},
	{KindSweep, url.Values{"overheads": {"1000000"}}},
	{KindSweep, url.Values{"overheads": {strings.Repeat("0.1,", maxSweepOverheads) + "0.2"}}},
	{KindSweep, url.Values{"grid_scale": {"17"}}},
}

// FuzzParseQuery holds ParseQuery to its contract on any query kind and raw
// query string: it never panics, every error is a 400 bad-request, a parsed
// query stays within the bounds ParseQuery owns (overheads at most
// core.MaxAreaOverhead, at most maxSweepOverheads of them, grid scale at most
// core.MaxGridScale), and a parsed query's Key round-trips — parsing the key's
// own parameters gives back the same key.
func FuzzParseQuery(f *testing.F) {
	for _, raw := range []string{
		"util=0.7&full=1",
		"overheads=0.2,0.05",
		"overheads=0.05, 0.2",
		"overheads=0.05,0.2&grid_scale=4",
		"grid_scale=1",
		"overhead=1e21&overheads=1e21", // over the overhead bound: a 400
	} {
		for _, kind := range []Kind{KindAnalyze, KindERI, KindHW, KindSweep} {
			f.Add(string(kind), raw)
		}
	}
	for _, c := range badQueries {
		f.Add(string(c.kind), c.vals.Encode())
	}
	f.Fuzz(func(t *testing.T, kind, raw string) {
		vals, _ := url.ParseQuery(raw) // the handler's r.URL.Query() drops the error too
		q, err := ParseQuery(Kind(kind), vals)
		if err != nil {
			var hse *httpStatusError
			if !errors.As(err, &hse) || hse.status != http.StatusBadRequest || hse.category != "bad-request" {
				t.Fatalf("ParseQuery(%q, %q) error not a 400 bad-request: %v", kind, raw, err)
			}
			return
		}
		if q.Overhead > core.MaxAreaOverhead || len(q.Overheads) > maxSweepOverheads || q.GridScale > core.MaxGridScale {
			t.Fatalf("ParseQuery(%q, %q) = %+v exceeds the query bounds", kind, raw, q)
		}
		for _, ov := range q.Overheads {
			if ov > core.MaxAreaOverhead {
				t.Fatalf("ParseQuery(%q, %q) accepted sweep overhead %g above the bound", kind, raw, ov)
			}
		}
		key := q.Key()
		k, params, _ := strings.Cut(key, "?")
		kvals, err := url.ParseQuery(params)
		if err != nil {
			t.Fatalf("key %q of (%q, %q) has unparsable parameters: %v", key, kind, raw, err)
		}
		q2, err := ParseQuery(Kind(k), kvals)
		if err != nil {
			t.Fatalf("key %q of (%q, %q) does not parse: %v", key, kind, raw, err)
		}
		if got := q2.Key(); got != key {
			t.Fatalf("key of (%q, %q) does not round-trip: %q parses to %q", kind, raw, key, got)
		}
	})
}

// TestServerDenseSweep runs a densified sweep through the HTTP path: the
// response must be bit-identical to a direct Exec of the same query, every
// point and its Pareto flag must be the exhaustive adaptive run's over the
// same grid, and the repeat request must be a cache hit.
func TestServerDenseSweep(t *testing.T) {
	gen, cfg := testDesign(t)
	srv := NewServer(Config{})
	if err := srv.AddDesign(context.Background(), "d", gen.Design, gen.Workload, cfg, nil); err != nil {
		t.Fatalf("AddDesign: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q, err := ParseQuery(KindSweep, url.Values{"overheads": {"0.1,0.3"}, "grid_scale": {"2"}})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want, _, err := Exec(context.Background(), flow.New(gen.Design, gen.Workload, cfg), q)
	if err != nil {
		t.Fatalf("reference Exec: %v", err)
	}
	ex, err := core.SweepEfficiencyCtx(context.Background(), flow.New(gen.Design, gen.Workload, cfg), core.SweepOptions{
		Overheads: []float64{0.1, 0.3},
		Workers:   1,
		Adaptive:  &core.AdaptiveOptions{GridScale: 2, Margin: math.Inf(1), CoarseFactor: 2},
	})
	if err != nil {
		t.Fatalf("exhaustive adaptive sweep: %v", err)
	}

	var got Result
	url := ts.URL + "/sweep?design=d&overheads=0.1,0.3&grid_scale=2"
	if code, _ := getJSON(t, ts.Client(), url, &got); code != http.StatusOK {
		t.Fatalf("dense sweep status %d: %+v", code, got)
	}
	if len(got.Points) != len(want.Points) || len(got.Points) != len(ex.Points) {
		t.Fatalf("served %d points, direct Exec %d, exhaustive adaptive run %d", len(got.Points), len(want.Points), len(ex.Points))
	}
	front := map[int]bool{}
	for _, i := range ex.ParetoFront() {
		front[i] = true
	}
	for i, pt := range got.Points {
		if pt != want.Points[i] {
			t.Fatalf("served point %d differs from direct Exec:\n got %+v\nwant %+v", i, pt, want.Points[i])
		}
		e := ex.Points[i]
		if exp := (SweepPoint{
			Strategy: string(e.Strategy), AreaOverhead: e.AreaOverhead, TempReduction: e.TempReduction,
			PeakRiseK: e.PeakRise, Rows: e.Rows, Utilization: e.Utilization,
			CriticalPathPs: e.CriticalPathPs, WorstSlackPs: e.WorstSlackPs, HPWLUm: e.HPWL,
			CongestionOverflows: e.CongestionOverflows, CongestionMaxUtil: e.CongestionMaxUtil,
			Pareto: front[i],
		}); pt != exp {
			t.Fatalf("served point %d differs from the exhaustive adaptive run:\n got %+v\nwant %+v", i, pt, exp)
		}
	}

	var hit Result
	if code, _ := getJSON(t, ts.Client(), url, &hit); code != http.StatusOK || !hit.Cached {
		t.Fatalf("repeat dense sweep not cached (status %d, cached %v)", code, hit.Cached)
	}
}

// TestSweepMeasuresEachERIRowCountOnce sweeps two overheads that round to
// one ERI row count on thermserve's CI design: the sweep reports that ERI
// point once, among five points, not twice among six.
func TestSweepMeasuresEachERIRowCountOnce(t *testing.T) {
	gen, err := bench.Scenario{Family: bench.FamilyPaperSynth9, Seed: 1, TargetCells: 1500}.Generate(celllib.Default65nm())
	if err != nil {
		t.Fatalf("generate scenario: %v", err)
	}
	cfg := flow.ScenarioConfig(gen.Scenario)
	cfg.SimCycles = 48
	cfg.Thermal.NX, cfg.Thermal.NY = 16, 16
	f := flow.New(gen.Design, gen.Workload, cfg)
	base, err := f.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	rows := core.RowsForAreaOverhead(base.Placement, 0.1)
	if r := core.RowsForAreaOverhead(base.Placement, 0.11); r != rows {
		t.Fatalf("overheads 0.1 and 0.11 round to %d and %d rows; the case needs one count", rows, r)
	}
	res, _, err := Exec(context.Background(), f, Query{Kind: KindSweep, Overheads: []float64{0.1, 0.11}})
	if err != nil {
		t.Fatal(err)
	}
	var eris []SweepPoint
	for _, pt := range res.Points {
		if pt.Strategy == string(core.StrategyERI) {
			eris = append(eris, pt)
		}
	}
	if len(res.Points) != 5 || len(eris) != 1 || eris[0].Rows != rows {
		t.Fatalf("sweep over 0.1,0.11 answered %d points with ERI points %+v, want 5 with one ERI point at %d rows", len(res.Points), eris, rows)
	}
}

// TestServerRejectsOverBoundQueries sends queries beyond the query bounds.
// Each must answer 400 bad-request before any placement work. The first
// asks for a core 8.5x the baseline's; the other four would allocate
// without limit (fillers of a huge core, a billion empty rows, a huge sweep
// overhead, a 1e8x densified candidate grid).
func TestServerRejectsOverBoundQueries(t *testing.T) {
	gen, cfg := testDesign(t)
	srv := NewServer(Config{})
	if err := srv.AddDesign(context.Background(), "d", gen.Design, gen.Workload, cfg, nil); err != nil {
		t.Fatalf("AddDesign: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, q := range []string{
		"/analyze?design=d&util=0.1",
		"/analyze?design=d&util=0.00001",
		"/delta?design=d&strategy=eri&rows=1000000000",
		"/sweep?design=d&overheads=1000000",
		"/sweep?design=d&overheads=0.1,0.2&grid_scale=100000000",
	} {
		start := time.Now()
		var eb errorBody
		if code, _ := getJSON(t, ts.Client(), ts.URL+q, &eb); code != http.StatusBadRequest || eb.Category != "bad-request" {
			t.Fatalf("%s: status %d category %q, want 400 bad-request", q, code, eb.Category)
		}
		if took := time.Since(start); took > time.Second {
			t.Fatalf("%s: rejected after %v, want well under a second", q, took)
		}
	}
}

// TestAddDesignRejectsNegativeBounds: a negative admission bound is an
// error from AddDesign, not a panic or a queue that sheds everything.
func TestAddDesignRejectsNegativeBounds(t *testing.T) {
	gen, cfg := testDesign(t)
	for _, c := range []Config{{MaxInFlight: -1}, {MaxQueue: -1}} {
		srv := NewServer(c)
		err := srv.AddDesign(context.Background(), "d", gen.Design, gen.Workload, cfg, nil)
		srv.Close()
		if err == nil {
			t.Fatalf("AddDesign accepted admission bounds %+v", c)
		}
	}
}

// testDesign generates a compact scenario and its flow config, small enough
// that a query solves in milliseconds.
func testDesign(t *testing.T) (*bench.Generated, flow.Config) {
	t.Helper()
	gen, err := bench.Scenario{Family: bench.FamilyHotspotCluster, Seed: 9, TargetCells: 800}.Generate(celllib.Default65nm())
	if err != nil {
		t.Fatalf("generate scenario: %v", err)
	}
	cfg := flow.ScenarioConfig(gen.Scenario)
	cfg.SimCycles = 32
	cfg.RefinePasses = 0
	cfg.Thermal.NX, cfg.Thermal.NY = 12, 12
	return gen, cfg
}

func getJSON(t *testing.T, client *http.Client, url string, out any) (int, http.Header) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decoding body: %v", url, err)
	}
	return resp.StatusCode, resp.Header
}

func TestServerEndToEnd(t *testing.T) {
	gen, cfg := testDesign(t)
	srv := NewServer(Config{MaxInFlight: 2, MaxQueue: 2})
	if err := srv.AddDesign(context.Background(), "d", gen.Design, gen.Workload, cfg, nil); err != nil {
		t.Fatalf("AddDesign: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A served analyze query must be bit-identical to a direct Exec on an
	// equivalently configured flow (JSON round-trips float64 exactly).
	ref := flow.New(gen.Design, gen.Workload, cfg)
	want, _, err := Exec(context.Background(), ref, Query{Kind: KindAnalyze, Utilization: 0.7, Full: true})
	if err != nil {
		t.Fatalf("reference Exec: %v", err)
	}
	var got Result
	if code, _ := getJSON(t, ts.Client(), ts.URL+"/analyze?design=d&util=0.7&full=1", &got); code != http.StatusOK {
		t.Fatalf("analyze status %d, body %+v", code, got)
	}
	if got.PeakRiseK != want.PeakRiseK || got.TempReduction != want.TempReduction ||
		got.TotalPowerW != want.TotalPowerW || got.AreaOverhead != want.AreaOverhead {
		t.Fatalf("served result differs from direct Exec:\n got %+v\nwant %+v", got, want)
	}
	if got.CriticalPathPs != want.CriticalPathPs || got.WorstSlackPs != want.WorstSlackPs ||
		got.HPWLUm != want.HPWLUm || got.CongestionOverflows != want.CongestionOverflows ||
		got.CongestionMaxUtil != want.CongestionMaxUtil {
		t.Fatalf("served co-analysis metrics differ from direct Exec:\n got %+v\nwant %+v", got, want)
	}
	if got.CriticalPathPs <= 0 || got.HPWLUm <= 0 {
		t.Fatalf("co-analysis metrics missing from /analyze: %+v", got)
	}
	if len(got.Surface) != len(want.Surface) {
		t.Fatalf("surface rows %d, want %d", len(got.Surface), len(want.Surface))
	}
	for iy := range want.Surface {
		for ix := range want.Surface[iy] {
			if got.Surface[iy][ix] != want.Surface[iy][ix] {
				t.Fatalf("surface[%d][%d] = %g, want %g (bit-exact)", iy, ix, got.Surface[iy][ix], want.Surface[iy][ix])
			}
		}
	}
	if got.Cached {
		t.Fatal("fresh result flagged cached")
	}

	// The same query again is a cache hit with identical values.
	var hit Result
	if code, _ := getJSON(t, ts.Client(), ts.URL+"/analyze?design=d&util=0.7&full=1", &hit); code != http.StatusOK {
		t.Fatalf("cached analyze status %d", code)
	}
	if !hit.Cached {
		t.Fatal("repeat query not served from cache")
	}
	if hit.PeakRiseK != got.PeakRiseK {
		t.Fatalf("cache hit changed the answer: %g vs %g", hit.PeakRiseK, got.PeakRiseK)
	}

	// Delta queries: ERI with explicit rows, HW at an overhead.
	var eri Result
	if code, _ := getJSON(t, ts.Client(), ts.URL+"/delta?design=d&strategy=eri&rows=2", &eri); code != http.StatusOK {
		t.Fatalf("eri status %d: %+v", code, eri)
	}
	if eri.Rows != 2 || eri.PeakRiseK <= 0 {
		t.Fatalf("eri result implausible: %+v", eri)
	}
	var hw Result
	if code, _ := getJSON(t, ts.Client(), ts.URL+"/delta?design=d&strategy=hw&overhead=0.25", &hw); code != http.StatusOK {
		t.Fatalf("hw status %d: %+v", code, hw)
	}

	// A small sweep.
	var sw Result
	if code, _ := getJSON(t, ts.Client(), ts.URL+"/sweep?design=d&overheads=0.25", &sw); code != http.StatusOK {
		t.Fatalf("sweep status %d: %+v", code, sw)
	}
	if len(sw.Points) == 0 {
		t.Fatal("sweep returned no points")
	}
	onFront := 0
	for _, pt := range sw.Points {
		if pt.CriticalPathPs <= 0 || pt.HPWLUm <= 0 {
			t.Fatalf("sweep point missing co-analysis metrics: %+v", pt)
		}
		if pt.Pareto {
			onFront++
		}
	}
	if onFront == 0 {
		t.Fatal("no sweep point marked on the Pareto front")
	}

	// Error paths carry categories.
	var eb errorBody
	if code, _ := getJSON(t, ts.Client(), ts.URL+"/analyze?design=nope", &eb); code != http.StatusNotFound || eb.Category != "unknown-design" {
		t.Fatalf("unknown design: status %d category %q", code, eb.Category)
	}
	if code, _ := getJSON(t, ts.Client(), ts.URL+"/analyze?design=d&util=zzz", &eb); code != http.StatusBadRequest || eb.Category != "bad-request" {
		t.Fatalf("bad util: status %d category %q", code, eb.Category)
	}
	if code, _ := getJSON(t, ts.Client(), ts.URL+"/delta?design=d", &eb); code != http.StatusBadRequest {
		t.Fatalf("missing strategy: status %d", code)
	}

	// Health endpoints and statz.
	var hb map[string]string
	if code, _ := getJSON(t, ts.Client(), ts.URL+"/healthz", &hb); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if code, _ := getJSON(t, ts.Client(), ts.URL+"/readyz", &hb); code != http.StatusOK {
		t.Fatalf("readyz status %d before drain", code)
	}
	var stz StatzResponse
	if code, _ := getJSON(t, ts.Client(), ts.URL+"/statz", &stz); code != http.StatusOK {
		t.Fatalf("statz status %d", code)
	}
	if len(stz.Designs) != 1 || stz.Designs[0].Design != "d" {
		t.Fatalf("statz designs: %+v", stz.Designs)
	}
	ds := stz.Designs[0]
	if ds.Admitted < 5 || ds.CacheBytes <= 0 {
		t.Fatalf("statz counters implausible: %+v", ds)
	}
	if ds.BaselineCriticalPathPs <= 0 || ds.BaselineHPWLUm <= 0 {
		t.Fatalf("statz missing baseline co-analysis metrics: %+v", ds)
	}

	// Drain: readyz flips, queries shed, nothing accepted afterwards.
	srv.BeginDrain()
	if code, _ := getJSON(t, ts.Client(), ts.URL+"/readyz", &hb); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz status %d during drain", code)
	}
	if code, _ := getJSON(t, ts.Client(), ts.URL+"/analyze?design=d&util=0.7", &eb); code != http.StatusServiceUnavailable || eb.Category != ShedDraining {
		t.Fatalf("query during drain: status %d category %q", code, eb.Category)
	}
	if n := srv.Drain(time.Second); n != 0 {
		t.Fatalf("idle drain canceled %d stragglers", n)
	}
}

func TestServerDeadlines(t *testing.T) {
	gen, cfg := testDesign(t)
	srv := NewServer(Config{MaxInFlight: 1, MaxQueue: 2})
	inject := &fault.Injector{}
	if err := srv.AddDesign(context.Background(), "d", gen.Design, gen.Workload, cfg, inject); err != nil {
		t.Fatalf("AddDesign: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Arm after warm-up (which consumed analysis ordinal 1): the next two
	// analyses stall until their contexts fire.
	inject.StallAnalyzeN = 2

	// Request 1 occupies the single in-flight slot, stalled until its own
	// deadline (analysis ordinal 2).
	type resp struct {
		code int
		body errorBody
	}
	r1 := make(chan resp, 1)
	go func() {
		var eb errorBody
		code, _ := getJSON(t, ts.Client(), ts.URL+"/analyze?design=d&util=0.7&deadline_ms=400", &eb)
		r1 <- resp{code, eb}
	}()
	// Wait until it holds the slot.
	d := srv.design("d")
	for d.adm.inFlight() == 0 {
		time.Sleep(time.Millisecond)
	}

	// Request 2 queues behind it and its deadline expires in the queue: shed
	// with 503 + Retry-After, never started (no analysis ordinal consumed).
	var eb errorBody
	code, hdr := getJSON(t, ts.Client(), ts.URL+"/analyze?design=d&util=0.72&deadline_ms=100", &eb)
	if code != http.StatusServiceUnavailable || eb.Category != ShedDeadline {
		t.Fatalf("queued expiry: status %d category %q", code, eb.Category)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	// Request 1 times out mid-analysis: 504 deadline.
	got1 := <-r1
	if got1.code != http.StatusGatewayTimeout || got1.body.Category != "deadline" {
		t.Fatalf("stalled request: status %d category %q", got1.code, got1.body.Category)
	}

	// The slot is free again and the stall prefix is spent at ordinal 3: a
	// normal query completes.
	var ok Result
	if code, _ := getJSON(t, ts.Client(), ts.URL+"/analyze?design=d&util=0.74", &ok); code != http.StatusOK {
		t.Fatalf("post-timeout query: status %d", code)
	}

	snap := srv.StatsFor("d")
	if snap.TimedOut == 0 || snap.Shed == 0 {
		t.Fatalf("counters did not record the episode: %+v", snap)
	}

	// Injected admission failure sheds through the same client-visible path.
	inject.FailAdmitN = 1
	if code, _ := getJSON(t, ts.Client(), ts.URL+"/analyze?design=d&util=0.74", &eb); code != http.StatusServiceUnavailable || eb.Category != ShedInjected {
		t.Fatalf("injected shed: status %d category %q", code, eb.Category)
	}
}

// TestServerNotConvergedThenRecovers covers the one degraded mode a query
// can meet, the solver's own: a solve whose preconditioned attempt and
// Jacobi retry both fail answers 500 not-converged, and the same query sent again
// is computed afresh (errors are never cached), bit-identical to a clean
// flow, with the retry counted on the design's stats.
func TestServerNotConvergedThenRecovers(t *testing.T) {
	gen, cfg := testDesign(t)
	srv := NewServer(Config{})
	inject := &fault.Injector{}
	if err := srv.AddDesign(context.Background(), "d", gen.Design, gen.Workload, cfg, inject); err != nil {
		t.Fatalf("AddDesign: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Warm-up consumed solve ordinal 1; fail solve 2 and its retry, so the
	// next query surfaces ErrNotConverged.
	inject.FailCGSolveN = 2
	inject.FailRetry = true
	var eb errorBody
	if code, _ := getJSON(t, ts.Client(), ts.URL+"/analyze?design=d&util=0.7", &eb); code != http.StatusInternalServerError || eb.Category != "not-converged" {
		t.Fatalf("doubly failed solve: status %d category %q", code, eb.Category)
	}

	// Solve 3 is clean: the same query answers from a fresh computation that
	// matches a direct Exec on an unprobed flow.
	var got Result
	if code, _ := getJSON(t, ts.Client(), ts.URL+"/analyze?design=d&util=0.7", &got); code != http.StatusOK {
		t.Fatalf("query after the failure: status %d", code)
	}
	if got.Cached {
		t.Fatal("query after the failure served from cache")
	}
	ref := flow.New(gen.Design, gen.Workload, cfg)
	want, _, err := Exec(context.Background(), ref, Query{Kind: KindAnalyze, Utilization: 0.7})
	if err != nil {
		t.Fatalf("reference Exec: %v", err)
	}
	if got.PeakRiseK != want.PeakRiseK || got.TotalPowerW != want.TotalPowerW || got.CriticalPathPs != want.CriticalPathPs {
		t.Fatalf("recovered result differs from a clean Exec:\n got %+v\nwant %+v", got, want)
	}
	if n := srv.StatsFor("d").SolveRetries; n != 1 {
		t.Fatalf("SolveRetries = %d, want 1", n)
	}
}

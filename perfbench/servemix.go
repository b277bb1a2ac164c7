package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"reflect"
	"strconv"
	"sync"
	"time"

	"thermplace/internal/bench"
	"thermplace/internal/flow"
	"thermplace/internal/serve"
)

// serve-mix: thermserve's handler on loopback HTTP with the 12k-cell design
// resident, driven open loop: queries are due at Poisson arrival times and
// each is timed from its due time, so a stall delays the queries behind it.
// Half the queries come from a small hot set that stays cached; the other
// half are fresh keys that miss, are computed, and evict older entries from
// the server's default 64 MiB result cache (filled before the window).
//
// serveRate is about half of what the server sustains on this mix: run
// closed loop (`--sustained`), the plans of five seeds completed 37.7 to
// 43.9 queries/s, median 39.5, on a 2-vCPU Xeon VM (perfbench/README.md).
const (
	serveDesign      = "bench"
	serveRate        = 18.0 // queries per second
	serveConns       = 2    // client connections
	serveMaxInFlight = 2
	serveHotShare    = 0.5
	serveFillMax     = 600 // bound on the cache-filling queries before the window; about 32 fill it

	// op_ms_p90 is the median over this many equal slices of the plan, in
	// due order, of each slice's 90th-percentile latency, so a host stall in
	// one slice moves it little. The plan's size, and so the slicing, does
	// not depend on the program's speed.
	serveSlices = 8
)

// serveHot is the hot set: one query of each kind, issued before the window
// so every later occurrence is a cache hit.
var serveHot = []string{
	"/analyze?util=0.7",
	"/delta?strategy=eri&rows=8",
	"/delta?strategy=hw&overhead=0.16",
	"/sweep?overheads=0.24",
}

// hwCandidates are the fresh HW overheads a run may draw from; golden.json
// keeps, per stimulus seed, those that succeed on a clean flow (a wrapper
// needs a tight hotspot at the relaxed placement).
func hwCandidates() []float64 {
	var out []float64
	for i := 0; i < 96; i++ {
		out = append(out, 0.05+0.35*float64(i)/95)
	}
	return out
}

// serveQuery is one scheduled query.
type serveQuery struct {
	path string
	kind serve.Kind
	due  time.Duration // offset from the window start

	status  int
	body    []byte
	latency float64 // ms from due time to the full response
	late    float64 // ms the generator dispatched it after its due time
	cached  bool
}

// servePlan builds the timed window's queries. Hot and fresh keys, and the
// four kinds among the fresh ones, come in fixed proportions. The fresh
// values are fixed too, spread evenly over each kind's range (HW overheads
// over those that succeed on a clean flow). The seed only shuffles the
// queries and draws the exponential arrival gaps at serveRate, so every
// seed does the same work but for the stimulus.
//
// Fresh keys are of the four kinds in equal numbers. The server has no
// traffic record to weight them by, so none is favoured; a traced run's
// per-kind medians show what each costs.
func servePlan(seed int64, seconds float64, hwPool []float64) ([]*serveQuery, error) {
	rng := rand.New(rand.NewSource(seed))
	n := int(serveRate*seconds + 0.5)
	if n < 8 {
		n = 8
	}
	hot := int(float64(n)*serveHotShare + 0.5)
	fresh := n - hot
	per := (fresh + 3) / 4 // fresh keys of each kind
	if per > len(hwPool) {
		return nil, fmt.Errorf("serve-mix: %d fresh HW queries but %d validated overheads", per, len(hwPool))
	}
	var qs []*serveQuery
	for i := 0; i < fresh; i++ {
		j := i / 4
		at := (float64(j) + 0.5) / float64(per) // position in the kind's range
		var path string
		switch i % 4 {
		case 0: // utilizations 0.61..0.84, below the baseline's 0.85
			path = "/analyze?util=" + ff(0.61+0.23*at)
		case 1: // row counts from 17, above the hot set's
			path = "/delta?strategy=eri&rows=" + strconv.Itoa(17+j)
		case 2:
			path = "/delta?strategy=hw&overhead=" + ff(hwPool[int(at*float64(len(hwPool)))])
		case 3:
			path = "/sweep?overheads=" + ff(0.05+0.35*at)
		}
		qs = append(qs, &serveQuery{path: path, kind: kindOf(path)})
	}
	for i := 0; i < hot; i++ {
		p := serveHot[i%len(serveHot)]
		qs = append(qs, &serveQuery{path: p, kind: kindOf(p)})
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	var t float64
	for _, q := range qs {
		t += rng.ExpFloat64() / serveRate
		q.due = time.Duration(t * float64(time.Second))
	}
	return qs, nil
}

func ff(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }

func kindOf(path string) serve.Kind {
	u, _ := url.Parse(path)
	switch u.Path {
	case "/analyze":
		return serve.KindAnalyze
	case "/sweep":
		return serve.KindSweep
	}
	return serve.Kind(u.Query().Get("strategy"))
}

// serveInst is a running server with its client.
type serveInst struct {
	g      *bench.Generated
	cfg    flow.Config
	srv    *serve.Server
	http   *http.Server
	served chan error
	base   string
	client *http.Client
}

func newServeInst(size string, stim int64) (*serveInst, error) {
	g, cfg, err := paperDesign(size).generate(stim)
	if err != nil {
		return nil, err
	}
	s := &serveInst{g: g, cfg: cfg}
	s.srv = serve.NewServer(serve.Config{MaxInFlight: serveMaxInFlight})
	if err := s.srv.AddDesign(context.Background(), serveDesign, g.Design, g.Workload, cfg, nil); err != nil {
		s.srv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.http = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.http.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveConns,
		MaxIdleConnsPerHost: serveConns,
	}}
	return s, nil
}

// get issues one query and returns the status and body.
func (s *serveInst) get(path string) (int, []byte, error) {
	resp, err := s.client.Get(s.base + path + "&design=" + serveDesign)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// issueHot issues the hot set, making it the most recently used.
func (s *serveInst) issueHot() error {
	for _, p := range serveHot {
		if st, body, err := s.get(p); err != nil || st != http.StatusOK {
			return fmt.Errorf("serve-mix: hot query %s: status %d, %v: %s", p, st, err, body)
		}
	}
	return nil
}

// fill sends analyze queries outside the fresh-key range until the result
// cache first evicts, or serveFillMax of them, and returns how many it sent.
// How many fit depends on the program's memory accounting, so this is not
// part of the timed set-up. A cache still not full at the bound is no
// failure: the window then evicts less, which serve.evicted shows.
func (s *serveInst) fill() (int, error) {
	i := 0
	for ; i < serveFillMax && s.srv.StatsFor(serveDesign).Evicted == 0; i++ {
		if st, body, err := s.get("/analyze?util=" + ff(0.50+0.00002*float64(i))); err != nil || st != http.StatusOK {
			return i, fmt.Errorf("serve-mix: fill query: status %d, %v: %s", st, err, body)
		}
	}
	return i, nil
}

// prepare readies a set-up server for the window: the cache filled until
// it evicts, then the hot set issued again so it is the most recently used.
func (s *serveInst) prepare() (int, error) {
	n, err := s.fill()
	if err != nil {
		return n, err
	}
	return n, s.issueHot()
}

func (s *serveInst) close() {
	s.http.Close()
	<-s.served
	s.client.CloseIdleConnections()
	s.srv.Close()
}

// window runs the plan open loop: a dispatcher releases each query at its
// due time into a queue that serveConns client workers drain.
func (s *serveInst) window(qs []*serveQuery) {
	queue := make(chan *serveQuery, len(qs)) // never blocks the dispatcher
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range queue {
				st, body, err := s.get(q.path)
				q.latency = ms(time.Since(start) - q.due)
				q.status, q.body = st, body
				if err != nil {
					q.status = 0
				}
			}
		}()
	}
	for _, q := range qs {
		if d := q.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		q.late = ms(time.Since(start) - q.due)
		queue <- q
	}
	close(queue)
	wg.Wait()
}

// sustainedRate sets serve-mix up as a timed run does and sends the
// window's queries closed loop: all are due at once, so each client
// connection sends its next query as soon as the last is answered. It
// returns the queries per second the server completed.
func sustainedRate(rc runConfig) (float64, error) {
	qs, err := servePlan(rc.seed, rc.seconds, rc.want.HWOverheads)
	if err != nil {
		return 0, err
	}
	inst, err := serveSetup(rc)
	if err != nil {
		return 0, err
	}
	defer inst.close()
	if _, err := inst.prepare(); err != nil {
		return 0, err
	}
	for _, q := range qs {
		q.due = 0
	}
	settleHeap()
	t0 := time.Now()
	inst.window(qs)
	rate := float64(len(qs)) / time.Since(t0).Seconds()
	for _, q := range qs {
		if q.status != http.StatusOK {
			return 0, fmt.Errorf("%s: status %d: %s", q.path, q.status, q.body)
		}
	}
	return rate, nil
}

// verify checks every response: a 200 whose result equals serve.Exec of
// the same query on a clean flow (== on every float, after the same JSON
// round trip). For a hot-set query both results must also match its golden
// output. It returns the number of failed queries and the first error.
func (s *serveInst) verify(qs []*serveQuery, golden map[string]*output) (int, error) {
	clean := flow.New(s.g.Design, s.g.Workload, s.cfg)
	defer clean.Close()
	if _, err := clean.AnalyzeBaseline(); err != nil {
		return len(qs), err
	}
	byKey := map[string][]*serveQuery{}
	var keys []string
	for _, q := range qs {
		if _, ok := byKey[q.path]; !ok {
			keys = append(keys, q.path)
		}
		byKey[q.path] = append(byKey[q.path], q)
	}
	want := make([]*serve.Result, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				want[i], errs[i] = execJSON(clean, keys[i])
			}
		}()
	}
	for i := range keys {
		next <- i
	}
	close(next)
	wg.Wait()

	failed := 0
	var first error
	for i, key := range keys {
		gold := golden[key]
		if errs[i] == nil && gold != nil {
			errs[i] = gold.check(resultOutput(want[i]))
		}
		for _, q := range byKey[key] {
			err := errs[i]
			if err == nil {
				err = q.matches(want[i], gold)
			}
			if err != nil {
				failed++
				if first == nil {
					first = fmt.Errorf("%s: %w", key, err)
				}
			}
		}
	}
	return failed, first
}

// execJSON runs the query directly on the clean flow and round-trips the
// result through JSON as the server does.
func execJSON(f *flow.Flow, path string) (*serve.Result, error) {
	u, err := url.Parse(path)
	if err != nil {
		return nil, err
	}
	q, err := serve.ParseQuery(kindOf(path), u.Query())
	if err != nil {
		return nil, err
	}
	res, _, err := serve.Exec(context.Background(), f, q)
	if err != nil {
		return nil, err
	}
	res.Design = serveDesign
	data, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	var out serve.Result
	return &out, json.Unmarshal(data, &out)
}

// matches checks a served response against the clean flow's result and, for
// a hot-set query, against its golden output.
func (q *serveQuery) matches(want *serve.Result, golden *output) error {
	if q.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", q.status, q.body)
	}
	var got serve.Result
	if err := json.Unmarshal(q.body, &got); err != nil {
		return err
	}
	q.cached = got.Cached
	got.Cached = false
	if golden != nil {
		if err := golden.check(resultOutput(&got)); err != nil {
			return fmt.Errorf("served result: %w", err)
		}
	}
	if !reflect.DeepEqual(&got, want) {
		return errors.New("served result differs from serve.Exec on a clean flow")
	}
	return nil
}

// serveSetup is serve-mix's timed set-up: the design generated, the server
// built with it resident (AddDesign runs the baseline analysis) and the hot
// set issued.
func serveSetup(rc runConfig) (*serveInst, error) {
	inst, err := newServeInst(rc.size, rc.stim)
	if err != nil {
		return nil, err
	}
	if err := inst.issueHot(); err != nil {
		inst.close()
		return nil, err
	}
	return inst, nil
}

func runServeMix(rc runConfig) (*result, error) {
	res := &result{metrics: map[string]float64{}, meta: map[string]any{}}
	for _, p := range serveHot {
		if rc.want.Hot[p] == nil {
			return nil, fmt.Errorf("no golden output for the hot query %s", p)
		}
	}
	qs, err := servePlan(rc.seed, rc.seconds, rc.want.HWOverheads)
	if err != nil {
		return nil, err
	}
	setup := func() (*serveInst, error) { return serveSetup(rc) }
	repeats := setupsBefore
	if rc.trace {
		repeats = 1
	}
	var setups []float64
	inst, err := timeSetups(repeats, setup, &setups)
	if err != nil {
		return nil, err
	}
	res.meta["setup_s_samples"] = setups
	filled, err := inst.prepare()
	res.meta["fill_queries"] = filled
	if err != nil {
		inst.close()
		return nil, err
	}

	settleHeap()
	evicted0 := inst.srv.StatsFor(serveDesign).Evicted
	gc0, pause0 := gcCounters()
	a0 := allocatedBytes()
	inst.window(qs)
	allocated := allocatedBytes() - a0
	gc1, pause1 := gcCounters()
	evicted := inst.srv.StatsFor(serveDesign).Evicted - evicted0
	heapLive := liveHeapMB()
	inst.close()

	failed, ferr := inst.verify(qs, rc.want.Hot)
	res.attempted, res.failed = len(qs), failed
	if ferr != nil {
		res.meta["error"] = ferr.Error()
	}
	if !rc.trace {
		// The timed instance is closed and no longer referenced, so these
		// set-ups, like those before the window, run with none resident.
		extra, err := timeSetups(setupsAfter, setup, &setups)
		if err != nil {
			return nil, err
		}
		extra.close()
		res.meta["setup_s_samples"] = setups
	}
	var lat, late, hit, miss []float64
	byKind := map[serve.Kind][]float64{}
	for _, q := range qs {
		lat = append(lat, q.latency)
		late = append(late, q.late)
		if q.cached {
			hit = append(hit, q.latency)
		} else {
			miss = append(miss, q.latency)
			byKind[q.kind] = append(byKind[q.kind], q.latency)
		}
	}
	res.meta["samples"] = len(lat)
	res.meta["bench.late_ms_p90"] = quantile(late, 0.9)
	res.meta["hits"], res.meta["misses"] = len(hit), len(miss)
	if !rc.trace {
		res.metrics["setup_s"] = median(setups)
		res.meta["op_ms_p50"] = median(lat)
		var p90s []float64
		for k := 0; k < serveSlices; k++ {
			p90s = append(p90s, quantile(lat[k*len(lat)/serveSlices:(k+1)*len(lat)/serveSlices], 0.9))
		}
		res.metrics["op_ms_p90"] = median(p90s)
		res.metrics["alloc_mb_per_op"] = float64(allocated) / 1e6 / float64(len(qs))
		res.metrics["heap_live_mb"] = heapLive
		return res, nil
	}
	for _, m := range perLayer {
		res.metrics[m.name] = 0
	}
	res.metrics["serve.hit_pct"] = 100 * float64(len(hit)) / float64(len(qs))
	res.metrics["serve.hit_ms_p50"] = median(hit)
	res.metrics["serve.miss_ms_p50"] = median(miss)
	res.metrics["serve.analyze_ms_p50"] = median(byKind[serve.KindAnalyze])
	res.metrics["serve.eri_ms_p50"] = median(byKind[serve.KindERI])
	res.metrics["serve.hw_ms_p50"] = median(byKind[serve.KindHW])
	res.metrics["serve.sweep_ms_p50"] = median(byKind[serve.KindSweep])
	res.metrics["serve.evicted"] = float64(evicted)
	res.metrics["runtime.gc_cycles"] = float64(gc1-gc0) / float64(len(qs))
	res.metrics["runtime.gc_pause_ms"] = ms(pause1-pause0) / float64(len(qs))
	return res, nil
}

// goldenServeMix computes the hot set's outputs and validates the fresh HW
// overheads on a clean flow; the run's other responses are checked against
// serve.Exec directly.
func goldenServeMix(size string, stim int64) (*output, error) {
	g, cfg, err := paperDesign(size).generate(stim)
	if err != nil {
		return nil, err
	}
	f := flow.New(g.Design, g.Workload, cfg)
	defer f.Close()
	out := &output{Hot: map[string]*output{}}
	for _, p := range serveHot {
		res, err := execJSON(f, p)
		if err != nil {
			return nil, fmt.Errorf("hot query %s: %w", p, err)
		}
		out.Hot[p] = resultOutput(res)
	}
	for _, ov := range hwCandidates() {
		if _, err := execJSON(f, "/delta?strategy=hw&overhead="+ff(ov)); err == nil {
			out.HWOverheads = append(out.HWOverheads, ov)
		}
	}
	if len(out.HWOverheads) < 48 {
		return nil, fmt.Errorf("only %d of %d HW overheads succeed", len(out.HWOverheads), len(hwCandidates()))
	}
	return out, nil
}

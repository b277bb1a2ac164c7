package thermal

import "sync"

// Pool holds idle Solvers of one configuration and a default warm-start
// seed, so concurrent callers each check out their own assembled solver and
// every solve starts from a fixed field rather than from whatever the
// pooled solver computed last. That makes a pooled solve a pure function of
// its power map and seed: results do not depend on which idle solver runs
// it or on how solves are scheduled across goroutines.
//
// The default seed is the first field handed back through Put; until then
// solves without a seed of their own start cold. Idle solvers hold no
// goroutines, so a Pool needs no Close. A Pool is safe for concurrent use.
type Pool struct {
	cfg Config

	mu   sync.Mutex
	idle []*Solver
	seed []float64
}

// NewPool returns an empty pool of solvers for cfg. Solvers are built on
// demand by Get.
func NewPool(cfg Config) *Pool { return &Pool{cfg: cfg} }

// Get checks out an idle solver, building one outside the lock when none is
// idle, and seeds its warm start with seed. A nil seed, or one sized for
// another grid (a lineage parent solved at another resolution), falls back
// to the pool's default seed; with no default seed yet the solver keeps its
// own state. The caller returns the solver with Put.
func (p *Pool) Get(seed []float64) (*Solver, error) {
	p.mu.Lock()
	var s *Solver
	if n := len(p.idle); n > 0 {
		s, p.idle = p.idle[n-1], p.idle[:n-1]
	}
	p.mu.Unlock()
	if s == nil {
		var err error
		if s, err = NewSolver(p.cfg); err != nil {
			return nil, err
		}
	}
	if len(seed) != s.Unknowns() {
		// Read the default only now: another caller may have published it
		// while this solver was being built.
		p.mu.Lock()
		seed = p.seed
		p.mu.Unlock()
	}
	if seed != nil {
		if err := s.SeedState(seed); err != nil {
			p.Put(s, nil)
			return nil, err
		}
	}
	return s, nil
}

// Put returns a solver checked out by Get. A non-nil field (the solver's
// State after a successful solve) becomes the pool's default seed when
// there is none yet; the pool keeps the slice, so the caller must not
// modify it afterwards.
func (p *Pool) Put(s *Solver, field []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.seed == nil && len(field) == s.Unknowns() {
		p.seed = field
	}
	p.idle = append(p.idle, s)
}

package thermal

import (
	"slices"
	"sync"
	"testing"

	"thermplace/internal/geom"
)

// poolTestPM returns a 12x12 power map with one hot cell at (hx, hy).
func poolTestPM(hx, hy int, watts float64) *geom.Grid {
	pm := geom.NewGrid(12, 12, dieRegion(300))
	pm.Fill(1e-5)
	pm.Set(hx, hy, watts)
	return pm
}

// TestPoolSolveIsFreshSeededSolve checks that a pooled solve is == a fresh
// solver's solve seeded with the pool's default seed, whichever idle solver
// runs it and whatever that solver solved before.
func TestPoolSolveIsFreshSeededSolve(t *testing.T) {
	cfg := testConfig(12, 12)
	pmA, pmB, pmOther := poolTestPM(3, 3, 0.005), poolTestPM(8, 8, 0.004), poolTestPM(6, 1, 0.009)

	p := NewPool(cfg)
	s, err := p.Get(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(pmA); err != nil {
		t.Fatal(err)
	}
	seed := s.State()
	p.Put(s, seed)

	fresh, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.SeedState(seed); err != nil {
		t.Fatal(err)
	}
	want, wantField := solveState(t, fresh, pmB)

	// Give the pool a second idle solver with another history: it solved a
	// different map and handed that field back too (which must not replace
	// the default seed).
	s1, err := p.Get(nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Get(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Solve(pmOther); err != nil {
		t.Fatal(err)
	}
	p.Put(s2, s2.State())
	p.Put(s1, nil)

	// Both idle solvers, checked out in turn, reproduce the fresh solve.
	got := make([]*Solver, 2)
	for i := range got {
		if got[i], err = p.Get(nil); err != nil {
			t.Fatal(err)
		}
		res, field := solveState(t, got[i], pmB)
		if !slices.Equal(field, wantField) || res.Iterations != want.Iterations {
			t.Fatalf("pooled solve %d differs from the fresh seeded solve by %g C (%d vs %d iterations)",
				i, maxFieldDelta(t, field, wantField), res.Iterations, want.Iterations)
		}
	}
	if got[0] == got[1] {
		t.Fatal("two checkouts returned the same solver")
	}
	for _, g := range got {
		p.Put(g, nil)
	}
}

// TestPoolDefaultSeed checks that the default seed is nil until the first
// field is Put, that the first field wins, and that a seed sized for
// another grid falls back to the default.
func TestPoolDefaultSeed(t *testing.T) {
	cfg := testConfig(12, 12)
	p := NewPool(cfg)

	s, err := p.Get(make([]float64, 3))
	if err != nil {
		t.Fatal(err)
	}
	if s.State() != nil {
		t.Fatal("a solver from a pool without a default seed must start cold")
	}
	p.Put(s, nil)
	if s, err = p.Get(nil); err != nil {
		t.Fatal(err)
	}
	if s.State() != nil {
		t.Fatal("Put with a nil field must not set a default seed")
	}

	if _, err := s.Solve(poolTestPM(3, 3, 0.005)); err != nil {
		t.Fatal(err)
	}
	first := s.State()
	p.Put(s, first)

	other := slices.Clone(first)
	for i := range other {
		other[i] += 1
	}
	if s, err = p.Get(nil); err != nil {
		t.Fatal(err)
	}
	p.Put(s, other) // the default seed is already set; this must not replace it

	for _, tc := range []struct {
		name string
		seed []float64
		want []float64
	}{
		{"nil seed", nil, first},
		{"wrong-size seed", make([]float64, len(first)-1), first},
		{"own seed", other, other},
	} {
		s, err := p.Get(tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.State(); !slices.Equal(got, tc.want) {
			t.Errorf("%s: solver not seeded with the expected field", tc.name)
		}
		p.Put(s, nil)
	}
}

// TestPoolConcurrent runs concurrent Get/Solve/Put cycles (meant for -race)
// and checks every result against the sequential reference.
func TestPoolConcurrent(t *testing.T) {
	cfg := testConfig(12, 12)
	p := NewPool(cfg)
	s, err := p.Get(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(poolTestPM(5, 5, 0.005)); err != nil {
		t.Fatal(err)
	}
	p.Put(s, s.State())

	pms := make([]*geom.Grid, 8)
	want := make([]float64, len(pms))
	for i := range pms {
		pms[i] = poolTestPM(i, 11-i, 0.001*float64(i+1))
		s, err := p.Get(nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(pms[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.PeakRise
		p.Put(s, nil)
	}

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers) // each worker sends at most once
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range pms {
				i := (k + g) % len(pms)
				s, err := p.Get(nil)
				if err != nil {
					errs <- err
					return
				}
				res, err := s.Solve(pms[i])
				p.Put(s, nil)
				if err != nil {
					errs <- err
					return
				}
				if res.PeakRise != want[i] {
					t.Errorf("map %d: concurrent peak rise %g, sequential %g", i, res.PeakRise, want[i])
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

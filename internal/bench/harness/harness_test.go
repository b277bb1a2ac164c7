package harness

import (
	"fmt"
	"strings"
	"testing"

	"thermplace/internal/bench"
)

// TestScenarioFamiliesFullFlow is the metamorphic acceptance test: every
// scenario family, at two sizes each, runs the entire place → power →
// thermal → sweep pipeline and must satisfy every cross-implementation
// property (fast path vs SPICE oracle, MG vs Jacobi, warm vs cold solves,
// Workers=1 vs Workers=N bit-identity, placement legality). In -short mode
// one small seed per family still covers the full flow, which is what the
// CI scenario-harness job runs.
func TestScenarioFamiliesFullFlow(t *testing.T) {
	sizes := []int{1500, 3500}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, fam := range bench.Families() {
		for _, cells := range sizes {
			fam, cells := fam, cells
			t.Run(fmt.Sprintf("%s/cells=%d", fam, cells), func(t *testing.T) {
				rep, err := Run(bench.Scenario{Family: fam, Seed: 7, TargetCells: cells}, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if lo, hi := int(0.75*float64(cells)), int(1.25*float64(cells)); rep.Cells < lo || rep.Cells > hi {
					t.Errorf("generated %d cells for target %d", rep.Cells, cells)
				}
				if rep.PeakRise <= 0 {
					t.Errorf("baseline peak rise %v must be positive", rep.PeakRise)
				}
				if rep.Passed() < 6 {
					t.Errorf("only %d properties verified: %+v", rep.Passed(), rep.Checks)
				}
				for _, c := range rep.Checks {
					t.Logf("%-28s %s%s", c.Name, c.Detail, skipMark(c))
				}
			})
		}
	}
}

func skipMark(c Check) string {
	if c.Skipped {
		return " (skipped)"
	}
	return ""
}

// TestHarnessOptionKnobs exercises the non-default option paths: a custom
// grid above the oracle limit (oracle skipped), sweep disabled, and
// refinement disabled.
func TestHarnessOptionKnobs(t *testing.T) {
	sc := bench.Scenario{Family: bench.FamilyHotspotCluster, Seed: 9, TargetCells: 1200}
	rep, err := Run(sc, Options{
		Grid:         24,
		SimCycles:    32,
		RefinePasses: -1,
		Workers:      2,
		// 24*24*9 = 5184 unknowns; force the oracle to be skipped.
		OracleMaxUnknowns: 1000,
		SkipSweep:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	oracleSkipped, sweepSkipped := false, false
	for _, c := range rep.Checks {
		switch c.Name {
		case "fastpath-vs-spice-oracle":
			oracleSkipped = c.Skipped
		case "sweep-workers-equality":
			sweepSkipped = c.Skipped
		}
	}
	if !oracleSkipped {
		t.Error("oracle check should be skipped above OracleMaxUnknowns")
	}
	if !sweepSkipped {
		t.Error("sweep check should be skipped with SkipSweep")
	}
	if rep.Passed() < 4 {
		t.Errorf("only %d properties verified: %+v", rep.Passed(), rep.Checks)
	}
}

// TestHarnessRejectsBadScenario propagates generator validation errors.
func TestHarnessRejectsBadScenario(t *testing.T) {
	if _, err := Run(bench.Scenario{Family: "no-such-family"}, Options{}); err == nil {
		t.Fatal("unknown family must fail")
	}
	if _, err := Run(bench.Scenario{Family: bench.FamilyManyUnits, TargetCells: 50}, Options{}); err == nil {
		t.Fatal("absurd target cell count must fail")
	}
}

// TestHarnessFailsOnCorruptedSolver proves the harness cannot silently
// pass: a deliberately biased thermal result must trip the
// cross-implementation checks.
func TestHarnessFailsOnCorruptedSolver(t *testing.T) {
	sc := bench.Scenario{Family: bench.FamilyPaperSynth9, Seed: 5, TargetCells: 1500}
	_, err := Run(sc, Options{InjectThermalBiasC: 0.25, SkipSweep: true, SkipDeterminism: true})
	if err == nil {
		t.Fatal("harness passed with a corrupted thermal solver")
	}
	if !strings.Contains(err.Error(), "warm vs cold") {
		t.Fatalf("corrupted solver tripped the wrong check: %v", err)
	}
}

// TestHarnessFailsOnCorruptedAdaptiveEstimates proves the
// adaptive-front-exactness check bites: biased coarse estimates make the
// triage drop true-front candidates, which must fail the run.
func TestHarnessFailsOnCorruptedAdaptiveEstimates(t *testing.T) {
	sc := bench.Scenario{Family: bench.FamilyHotspotCluster, Seed: 9, TargetCells: 1200}
	_, err := Run(sc, Options{InjectAdaptiveBiasC: 1000, SkipDeterminism: true})
	if err == nil {
		t.Fatal("harness passed with corrupted adaptive estimates")
	}
	if !strings.Contains(err.Error(), "adaptive") {
		t.Fatalf("corrupted adaptive estimates tripped the wrong check: %v", err)
	}
}

// TestHarnessFailsOnCorruptedSweep proves the from-scratch oracle compares
// with ==: a sweep point's peak rise moved by one ulp, or one cell of an HW
// placement moved by a site, must each fail the run.
func TestHarnessFailsOnCorruptedSweep(t *testing.T) {
	sc := bench.Scenario{Family: bench.FamilyHotspotCluster, Seed: 9, TargetCells: 1200}
	for name, opts := range map[string]Options{
		"peak-rise-ulp": {NudgeSweepRise: true, SkipDeterminism: true},
		"hw-cell-moved": {CorruptSweepPlacement: true, SkipDeterminism: true},
	} {
		_, err := Run(sc, opts)
		if err == nil {
			t.Fatalf("%s: harness passed with a corrupted sweep", name)
		}
		if !strings.Contains(err.Error(), "from-scratch oracle") {
			t.Fatalf("%s: corrupted sweep tripped the wrong check: %v", name, err)
		}
	}
}

// TestHarnessFailsOnCorruptedPlacement proves the legality check bites: a
// cell knocked off the site grid must fail the run.
func TestHarnessFailsOnCorruptedPlacement(t *testing.T) {
	sc := bench.Scenario{Family: bench.FamilyPaperSynth9, Seed: 5, TargetCells: 1500}
	_, err := Run(sc, Options{CorruptPlacement: true, SkipSweep: true, SkipDeterminism: true})
	if err == nil {
		t.Fatal("harness passed with an illegal placement")
	}
	if !strings.Contains(err.Error(), "placement invalid") {
		t.Fatalf("corrupted placement tripped the wrong check: %v", err)
	}
}

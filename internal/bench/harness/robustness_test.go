package harness

import (
	"fmt"
	"testing"

	"thermplace/internal/bench"
)

// TestScenarioFamiliesRobustness is the fault-injection acceptance test:
// every scenario family runs the robustness suite — deterministic
// injections of multigrid setup failure, CG non-convergence, worker panics,
// stalled solves and corrupted power maps — and must exhibit the documented
// reactions: graceful degradation within tolerance, typed extractable
// errors, prompt cancellation and zero goroutine leakage.
func TestScenarioFamiliesRobustness(t *testing.T) {
	families := bench.Families()
	if testing.Short() {
		families = families[:1]
	}
	for _, fam := range families {
		fam := fam
		t.Run(fmt.Sprintf("%s/cells=1500", fam), func(t *testing.T) {
			rep, err := RunRobustness(bench.Scenario{Family: fam, Seed: 7, TargetCells: 1500},
				RobustnessOptions{})
			if err != nil {
				t.Fatal(err)
			}
			// The injection checks never skip; only the two sweep-level
			// checks may (hotspot-free baselines).
			if rep.Passed() < 7 {
				t.Errorf("only %d robustness properties verified: %+v", rep.Passed(), rep.Checks)
			}
			for _, c := range rep.Checks {
				t.Logf("%-28s %s%s", c.Name, c.Detail, skipMark(c))
			}
		})
	}
}

// TestRobustnessRejectsBadScenario propagates generator validation errors.
func TestRobustnessRejectsBadScenario(t *testing.T) {
	if _, err := RunRobustness(bench.Scenario{Family: "no-such-family"}, RobustnessOptions{}); err == nil {
		t.Fatal("unknown family must fail")
	}
}

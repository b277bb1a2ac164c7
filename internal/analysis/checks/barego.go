package checks

import (
	"go/ast"
	"strings"

	"thermplace/internal/analysis"
)

// BareGo forbids raw `go` statements in the numeric-core packages. The
// pipeline's concurrency runs on exactly two primitives — sparse.Pool
// (fork-join, panic-containing solver workers) and core's runTasks (bounded
// sweep group with sibling cancellation and lowest-index error selection)
// — and the leak/robustness suites assert their guarantees: a contained
// panic instead of a crash, no goroutine outliving its run, and
// deterministic error selection. A goroutine spawned outside them has none
// of that coverage. The primitives' own spawn sites carry
// //repolint:allow bareGo(...) directives: they are the implementation the
// rule points everyone else to.
var BareGo = &analysis.Analyzer{
	Name: "bareGo",
	Doc: "forbid raw go statements in the numeric core; concurrency must run on " +
		"sparse.Pool or core's runTasks, which own panic containment and leak accounting",
	Run: runBareGo,
}

// bareGoPackages extends the numeric core for this one analyzer: the query
// server (internal/serve) holds no numeric code — which is why it is not in
// corePackages and the clock-hostile nondeterminism analyzer leaves it alone
// — but its drain contract ("zero goroutines after the drain, every
// in-flight request tracked") depends on no goroutine existing outside the tracked
// request path, so raw spawns are forbidden there too.
var bareGoPackages = map[string]bool{
	"serve": true,
}

func inBareGoPackage(path string) bool {
	if inCorePackage(path) {
		return true
	}
	for _, seg := range strings.Split(path, "/") {
		if bareGoPackages[seg] {
			return true
		}
	}
	return false
}

func runBareGo(pass *analysis.Pass) error {
	if !inBareGoPackage(pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"raw goroutine in the numeric core bypasses sparse.Pool/runTasks panic containment and leak accounting; run the work on one of those primitives")
			}
			return true
		})
	}
	return nil
}

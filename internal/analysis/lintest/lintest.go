// Package lintest is an analysistest-style golden harness for the repolint
// analyzers: testdata packages carry `// want "regexp"` comments on the
// lines where diagnostics are expected, and the harness fails the test on
// any unexpected, missing or mismatched diagnostic. Like the loader it
// mimics, it resolves the testdata packages' (standard-library) imports
// through `go list -export`, so it runs offline on a bare toolchain.
package lintest

import (
	"regexp"
	"strings"
	"testing"

	"thermplace/internal/analysis"
)

// Run loads the given packages from srcRoot (a testdata/src-style tree,
// each element a directory path relative to it), applies the analyzer, and
// compares the diagnostics against the // want comments in the sources.
func Run(t *testing.T, srcRoot string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	RunAll(t, srcRoot, []*analysis.Analyzer{a}, pkgs...)
}

// RunAll is Run with several analyzers applied together (used to test the
// driver-level directive hygiene, which spans analyzers).
func RunAll(t *testing.T, srcRoot string, analyzers []*analysis.Analyzer, pkgs ...string) {
	t.Helper()
	loaded, err := analysis.LoadTestdata(".", srcRoot, pkgs...)
	if err != nil {
		t.Fatalf("loading testdata: %v", err)
	}
	diags, err := analysis.Run(loaded, analyzers)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}

	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*wantExpr)
	for _, pkg := range loaded {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, w := range parseWants(t, c.Text) {
						pos := pkg.Fset.Position(c.Pos())
						k := key{pos.Filename, pos.Line}
						wants[k] = append(wants[k], w)
					}
				}
			}
		}
	}

	for _, d := range diags {
		k := key{d.Position.Filename, d.Position.Line}
		matched := false
		for _, w := range wants[k] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, w.re)
			}
		}
	}
}

type wantExpr struct {
	re      *regexp.Regexp
	matched bool
}

// wantRE extracts the expectation strings of a want comment, each one
// double-quoted or backquoted.
var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// parseWants extracts the expectations of one comment. The comment must be
// of the form
//
//	// want "regexp" `another regexp`
//
// with one expectation per diagnostic expected on that line.
func parseWants(t *testing.T, text string) []*wantExpr {
	t.Helper()
	rest, ok := strings.CutPrefix(text, "// want ")
	if !ok {
		return nil
	}
	var out []*wantExpr
	for _, q := range wantRE.FindAllString(rest, -1) {
		body := q[1 : len(q)-1]
		if q[0] == '"' {
			body = strings.NewReplacer(`\"`, `"`, `\\`, `\`).Replace(body)
		}
		re, err := regexp.Compile(body)
		if err != nil {
			t.Fatalf("bad want pattern %s: %v", q, err)
		}
		out = append(out, &wantExpr{re: re})
	}
	if len(out) == 0 {
		t.Fatalf("want comment with no quoted patterns: %s", text)
	}
	return out
}

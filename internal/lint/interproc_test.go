package lint

// Tests for the interprocedural layer: the hotpath/atomicinv fixture
// suites, the full-registry staleness semantics of ignoredrift, and the
// unified-diff renderer behind kshapelint -diff.

import (
	"strings"
	"testing"
)

func TestHotPathFixture(t *testing.T) {
	checkFixture(t, "hotpath", "fix/hotpath", []*Analyzer{HotPathAnalyzer})
}

// TestHotPathCycleFixture: an allocation inside an un-annotated call
// cycle reaches every annotated root that enters the cycle, in both
// declaration orders (the closure must not depend on visit order).
func TestHotPathCycleFixture(t *testing.T) {
	for _, name := range []string{"hotcycle", "hotcyclerev"} {
		t.Run(name, func(t *testing.T) {
			checkFixture(t, name, "fix/"+name, []*Analyzer{HotPathAnalyzer})
		})
	}
}

func TestAtomicInvFixture(t *testing.T) {
	checkFixture(t, "atomicinv", "fix/atomicinv", []*Analyzer{AtomicInvAnalyzer})
}

// TestIgnoreDriftFixture runs ONLY the ignoredrift analyzer; Pass.Run
// internally executes the full registry so staleness is judged against
// every check, then drops the non-selected raw findings.
func TestIgnoreDriftFixture(t *testing.T) {
	checkFixture(t, "ignoredrift", "fix/ignoredrift", []*Analyzer{IgnoreDriftAnalyzer})
}

// TestHotPathSummaryCache asserts the interprocedural facts are computed
// once per function and shared: after an analyzer run, every reachable
// function has exactly one cached summary, and re-running against the
// same Program reports identical diagnostics without growing the caches.
func TestHotPathSummaryCache(t *testing.T) {
	p := parseFixture(t, "hotpath", "fix/hotpath")
	first := p.Run([]*Analyzer{HotPathAnalyzer})
	prog := p.Prog
	if prog == nil {
		t.Fatal("run did not attach a lazily built Program")
	}
	nsum, ntrans := len(prog.summaries), len(prog.transitive)
	if nsum == 0 || ntrans == 0 {
		t.Fatalf("no cached facts after a run: %d summaries, %d transitive", nsum, ntrans)
	}
	second := p.Run([]*Analyzer{HotPathAnalyzer})
	if len(prog.summaries) != nsum || len(prog.transitive) != ntrans {
		t.Errorf("re-run grew the caches: %d->%d summaries, %d->%d transitive",
			nsum, len(prog.summaries), ntrans, len(prog.transitive))
	}
	if len(first) != len(second) {
		t.Fatalf("re-run changed the findings: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("finding %d drifted between runs: %v vs %v", i, first[i], second[i])
		}
	}
}

// TestStaleIgnoreDiff renders the dry-run patch for the ignoredrift
// fixture: full-line stale directives become deletions, a trailing one
// is trimmed off its code line, and live/pinned directives are left
// untouched.
func TestStaleIgnoreDiff(t *testing.T) {
	p := parseFixture(t, "ignoredrift", "fix/ignoredrift")
	diags := p.Run([]*Analyzer{IgnoreDriftAnalyzer})
	if len(diags) != 3 {
		t.Fatalf("fixture should yield 3 stale directives, got %d: %v", len(diags), diags)
	}
	patch, err := StaleIgnoreDiff(diags, "")
	if err != nil {
		t.Fatal(err)
	}
	wantFragments := []string{
		"--- a/testdata/src/ignoredrift/ignoredrift.go",
		"+++ b/testdata/src/ignoredrift/ignoredrift.go",
		"@@ -",
		// Full-line directives are deleted outright.
		"-\t//lint:ignore floatcmp the comparison below was rewritten",
		"-\t//lint:ignore floatcmp,maporder neither check fires",
		// The trailing directive is trimmed, keeping the code.
		"-\treturn a < b //lint:ignore detrand ordering never tripped detrand",
		"+\treturn a < b\n",
	}
	for _, frag := range wantFragments {
		if !strings.Contains(patch, frag) {
			t.Errorf("patch missing %q:\n%s", frag, patch)
		}
	}
	for _, frag := range []string{
		"exactness is the point",    // live directive
		"one live check keeps",      // half-live directive
		"pinned: the exact",         // ignoredrift-pinned directive
		"kept deliberately through", // pin protecting its neighbor
		"kept while the comparison", // the pinned neighbor itself
	} {
		if strings.Contains(patch, "-\t//lint:ignore"+frag) || strings.Contains(patch, frag+" //") {
			t.Errorf("patch touches a live or pinned directive (%q):\n%s", frag, patch)
		}
	}
	// Live directives may appear as context lines (prefixed with a
	// space) but never as removals.
	for _, line := range strings.Split(patch, "\n") {
		if strings.HasPrefix(line, "-") && !strings.HasPrefix(line, "---") {
			if !strings.Contains(line, "//lint:ignore") {
				t.Errorf("removal of a non-directive line: %q", line)
			}
		}
	}
}

// TestStaleIgnoreDiffEmpty: no ignoredrift findings, no patch.
func TestStaleIgnoreDiffEmpty(t *testing.T) {
	diags := []Diagnostic{{Check: "floatcmp", Message: "x"}}
	patch, err := StaleIgnoreDiff(diags, "")
	if err != nil || patch != "" {
		t.Fatalf("want empty patch and nil error, got %q, %v", patch, err)
	}
}

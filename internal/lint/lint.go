// Package lint is the repo's static-analysis subsystem: a stdlib-only
// (go/parser, go/ast, go/types, go/importer — no x/tools) framework that
// loads and type-checks every package and runs a registry of analyzers,
// each enforcing an invariant the compiler cannot check but the paper's
// results depend on:
//
//	floatcmp  — no ==/!= on floating-point operands (Eq. 9, 13–15
//	            convergence checks must be epsilon-tolerant)
//	detrand   — no wall-clock or ambient randomness in library code
//	            (bit-determinism of the accuracy tables)
//	goroutine — all fan-out flows through the deterministic pool in
//	            internal/par (order-preserving reductions)
//	maporder  — no unordered map iteration feeding an output
//	errdrop   — no silently discarded error returns
//
// On top of the per-file checks sits an interprocedural layer (Program:
// a shared, cached call graph + per-function summaries over every loaded
// package) powering three whole-program analyzers:
//
//	hotpath     — //kshape:hotpath functions must not allocate, block,
//	              dispatch dynamically, or divide complex numbers,
//	              transitively through un-annotated callees
//	atomicinv   — state accessed via sync/atomic must never be accessed
//	              non-atomically; values published through atomic.Pointer
//	              must not be mutated after Store
//	ignoredrift — //lint:ignore directives must still suppress something
//
// Diagnostics carry a stable check ID and are suppressible with
//
//	//lint:ignore <check>[,<check>...] <reason>
//
// placed on the offending line or the line directly above it. The reason
// is mandatory: a suppression without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a stable check ID, a position, and a
// human-readable message.
type Diagnostic struct {
	Check    string         `json:"check"`
	Position token.Position `json:"position"`
	Message  string         `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Position, d.Check, d.Message)
}

// Analyzer is one registered check. Run inspects the package held by the
// Pass and reports findings through Pass.Reportf.
type Analyzer struct {
	Name string // stable check ID, e.g. "floatcmp"
	Doc  string // one-line description shown by -list
	Run  func(*Pass)
}

// Analyzers returns the full registry in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		FloatCmpAnalyzer,
		DetRandAnalyzer,
		GoroutineAnalyzer,
		MapOrderAnalyzer,
		ErrDropAnalyzer,
		HotPathAnalyzer,
		AtomicInvAnalyzer,
		IgnoreDriftAnalyzer,
	}
}

// Select resolves enable/disable comma-lists against the registry.
// enable == "" or "all" selects every analyzer; names must exist.
func Select(enable, disable string) ([]*Analyzer, error) {
	byName := map[string]*Analyzer{}
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	picked := map[string]bool{}
	if enable == "" || enable == "all" {
		for name := range byName {
			picked[name] = true
		}
	} else {
		for _, name := range splitList(enable) {
			if byName[name] == nil {
				return nil, fmt.Errorf("lint: unknown check %q", name)
			}
			picked[name] = true
		}
	}
	for _, name := range splitList(disable) {
		if byName[name] == nil {
			return nil, fmt.Errorf("lint: unknown check %q", name)
		}
		delete(picked, name)
	}
	var out []*Analyzer
	for _, a := range Analyzers() { // registry order keeps output stable
		if picked[a.Name] {
			out = append(out, a)
		}
	}
	return out, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// Pass carries one type-checked package through one analyzer run.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// PkgPath is the import path used for path-scoped exemptions
	// (e.g. goroutine permits `go` statements only in kshape/internal/par).
	// It is Pkg.Path() under the real loader but overridable in fixtures.
	PkgPath string
	// Prog is the shared interprocedural state (call graph, function
	// summaries, atomic-access facts) spanning every package of the
	// invocation. The driver builds one Program and attaches it to each
	// package's Pass; when nil, the interprocedural analyzers lazily
	// build a single-package Program, which keeps fixtures and direct
	// Pass construction working.
	Prog *Program

	check  string
	report func(Diagnostic)
}

// Reportf records a finding for the analyzer currently running.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Check:    p.check,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the given analyzers over the package, applies
// //lint:ignore suppressions, and returns surviving diagnostics sorted by
// position. Malformed directives (unknown check, missing reason) are
// returned as diagnostics under the "ignore" pseudo-check.
//
// When ignoredrift is among the selected analyzers, Run executes the
// FULL registry (not just the selection) to collect raw diagnostics:
// a directive is stale only if no analyzer at all would hit it, so
// staleness must be judged against every check regardless of -checks.
// Raw findings from non-selected analyzers feed that accounting and are
// then dropped, never reported.
func (p *Pass) Run(analyzers []*Analyzer) []Diagnostic {
	selected := map[string]bool{}
	for _, a := range analyzers {
		selected[a.Name] = true
	}
	toRun := analyzers
	if selected[ignoreDriftName] {
		toRun = nil
		for _, a := range Analyzers() {
			if a.Name != ignoreDriftName {
				toRun = append(toRun, a)
			}
		}
	}
	var raw []Diagnostic
	p.report = func(d Diagnostic) { raw = append(raw, d) }
	for _, a := range toRun {
		p.check = a.Name
		a.Run(p)
	}
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	dirs, bad := parseIgnores(p.Fset, p.Files, known)
	out := append([]Diagnostic(nil), bad...)
	for _, d := range raw {
		if !dirs.suppresses(d) && selected[d.Check] {
			out = append(out, d)
		}
	}
	if selected[ignoreDriftName] {
		// Snapshot the stale candidates before suppression checks: a
		// directive listing ignoredrift earns its hit by suppressing a
		// stale report, and that must not rescue it from being one.
		var stale []*ignoreDirective
		for _, dir := range dirs.all {
			if dir.hits == 0 && !isTestFile(p.Fset, dir.comment.Pos()) {
				stale = append(stale, dir)
			}
		}
		for _, dir := range stale {
			d := Diagnostic{
				Check:    ignoreDriftName,
				Position: p.Fset.Position(dir.comment.Pos()),
				Message: fmt.Sprintf("stale directive: no %q diagnostic is suppressed here anymore; delete it",
					strings.Join(dir.checks, ",")),
			}
			if !dirs.suppresses(d) {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Position, out[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Check < out[j].Check
	})
	return out
}

// ignoreDirective is one well-formed //lint:ignore comment: its checks,
// its source comment (position and text feed the ignoredrift report and
// the -diff renderer), and how many diagnostics it suppressed this run.
type ignoreDirective struct {
	comment *ast.Comment
	checks  []string
	hits    int
}

// ignoreSet indexes //lint:ignore directives by file and line. A
// directive at line L suppresses matching diagnostics on L (trailing
// comment) and L+1 (comment above the statement). Suppressions are
// counted per directive so ignoredrift can report the ones that never
// fired.
type ignoreSet struct {
	byLoc map[string]map[int][]*ignoreDirective // filename -> line -> directives
	all   []*ignoreDirective                    // parse order
}

// suppresses reports whether any directive covers the diagnostic,
// crediting a hit to every directive that does.
func (s *ignoreSet) suppresses(d Diagnostic) bool {
	lines := s.byLoc[d.Position.Filename]
	hit := false
	for _, line := range []int{d.Position.Line, d.Position.Line - 1} {
		for _, dir := range lines[line] {
			for _, check := range dir.checks {
				if check == d.Check || check == "all" {
					dir.hits++
					hit = true
					break
				}
			}
		}
	}
	return hit
}

const ignorePrefix = "//lint:ignore"

func parseIgnores(fset *token.FileSet, files []*ast.File, known map[string]bool) (*ignoreSet, []Diagnostic) {
	dirs := &ignoreSet{byLoc: map[string]map[int][]*ignoreDirective{}}
	var bad []Diagnostic
	malformed := func(pos token.Pos, format string, args ...any) {
		bad = append(bad, Diagnostic{
			Check:    "ignore",
			Position: fset.Position(pos),
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					malformed(c.Pos(), "malformed directive %q: want //lint:ignore <check>[,<check>...] <reason>", c.Text)
					continue
				}
				checks := splitList(fields[0])
				ok := true
				for _, check := range checks {
					if check != "all" && !known[check] {
						malformed(c.Pos(), "unknown check %q in ignore directive", check)
						ok = false
					}
				}
				if !ok {
					continue
				}
				dir := &ignoreDirective{comment: c, checks: checks}
				p := fset.Position(c.Pos())
				if dirs.byLoc[p.Filename] == nil {
					dirs.byLoc[p.Filename] = map[int][]*ignoreDirective{}
				}
				dirs.byLoc[p.Filename][p.Line] = append(dirs.byLoc[p.Filename][p.Line], dir)
				dirs.all = append(dirs.all, dir)
			}
		}
	}
	return dirs, bad
}

// ---- shared type/AST helpers used by the analyzers ----

// pkgFunc reports whether the call expression invokes the package-level
// function path.name (resolved through go/types, so import aliases are
// handled), returning the object's name on a match with any name in names.
func pkgFunc(info *types.Info, call *ast.CallExpr, path string, names ...string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != path {
		return "", false
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return "", false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return "", false // method on a type from that package, not a package-level func
	}
	if len(names) == 0 {
		return obj.Name(), true
	}
	for _, n := range names {
		if obj.Name() == n {
			return obj.Name(), true
		}
	}
	return "", false
}

// namedPath returns the full path.Name of the (possibly pointered) named
// type, or "" when t is not a named type.
func namedPath(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// isTestFile reports whether the file containing pos is a _test.go file.
// The analyzers exempt test code: exact-copy assertions, benchmark
// timing, and race-test goroutines are all legitimate there.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

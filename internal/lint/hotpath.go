package lint

// hotpath enforces the kernel contract behind the paper's efficiency
// claims: a function annotated //kshape:hotpath — the SBD batch/NCC/RFFT
// kernels, the par reduction inner loops, the assignment/refinement
// inner loops — must execute without allocating, blocking, dispatching
// dynamically, or dividing complex numbers (which lowers to a
// runtime.complex128div call), and so must everything it calls. Direct
// violations are reported at the offending expression; violations inside
// un-annotated callees are reported at the call site (the position the
// annotated function's author controls), with the deep position named in
// the message. Annotated callees are trusted at the call site because
// the analyzer checks them at their own declaration.

import (
	"go/ast"
	"go/types"
)

// HotPathAnalyzer checks //kshape:hotpath functions transitively for
// allocation-free, block-free, statically dispatched execution.
var HotPathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc:  "//kshape:hotpath functions must not allocate, block, dispatch dynamically, or divide complex numbers (transitively)",
	Run:  runHotPath,
}

func runHotPath(p *Pass) {
	prog := p.program()
	for _, f := range p.Files {
		if isTestFile(p.Fset, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasHotPathDirective(fd.Doc) {
				continue
			}
			obj, ok := p.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sum := prog.summary(obj)
			for _, v := range sum.direct {
				p.Reportf(v.pos, "%s", v.msg)
			}
			for _, cs := range sum.calls {
				fi := prog.fns[cs.callee]
				if fi == nil || fi.Hot {
					continue // annotated callees are checked at their own declaration
				}
				for _, v := range prog.hotViolations(cs.callee) {
					p.Reportf(cs.pos, "call to %s reaches a hot-path violation: %s (at %s); annotate the callee or hoist the work",
						cs.callee.Name(), v.msg, p.Fset.Position(v.pos))
				}
			}
		}
	}
}

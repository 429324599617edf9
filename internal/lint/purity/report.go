package purity

import (
	"go/ast"
	"go/token"
	"go/types"

	"politewifi/internal/lint/analysis"
)

// Display renders a function for a call chain: pkgname.Func,
// pkgname.(T).M, or pkgname.(*T).M.
func Display(fn *types.Func) string { return display(fn) }

// ReportTaints invokes report for every call site whose static callee
// carries an unsanctioned taint of the given kind, with the full
// chain from the enclosing function down to the source. This is the
// transitive half of the wallclock and globalrand analyzers: the
// direct half (a literal time.Now in this package) stays a local
// check, so only calls that *reach* a source through other functions
// arrive here.
func ReportTaints(pass *analysis.Pass, kind string, report func(pos token.Pos, chain []string)) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			caller, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := analysis.StaticCallee(pass.TypesInfo, call)
				if callee == nil {
					return true
				}
				var sig Sig
				if !pass.ImportObjectFact(callee, &sig) {
					return true
				}
				t := sig.taint(kind)
				if t == nil || t.Sanctioned {
					return true
				}
				chain := t.Chain
				if caller != nil {
					chain = extend(display(caller), chain)
				}
				report(call.Pos(), chain)
				return true
			})
		}
	}
}

// EscapeFactOf returns the escape records of a call's static callee
// (nil when factless or escape-free), for bufreuse's interprocedural
// check.
func EscapeFactOf(pass *analysis.Pass, call *ast.CallExpr) []Escape {
	callee := analysis.StaticCallee(pass.TypesInfo, call)
	if callee == nil {
		return nil
	}
	var sig Sig
	if !pass.ImportObjectFact(callee, &sig) {
		return nil
	}
	return sig.Escapes
}

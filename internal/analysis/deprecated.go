package analysis

import (
	"go/ast"
	"strings"
)

// DeprecatedInternal keeps the engine's own packages off APIs marked
// Deprecated:. The public surface keeps them for compatibility (and
// experiments may measure them — with a //nolint:nblb-deprecated and a
// reason), but internal code and cmd/ reaching for a deprecated wrapper
// instead of its replacement re-entrenches the path the deprecation
// exists to retire.
//
// The declaring function itself, its siblings in the same deprecated
// family (a deprecated wrapper calling another deprecated wrapper), and
// _test.go files are exempt: tests still pin down deprecated behavior
// until the API is deleted.
var DeprecatedInternal = &Analyzer{
	Name: "deprecated",
	Doc:  "report internal callers of Deprecated: APIs",
	Run:  runDeprecated,
}

func runDeprecated(pass *Pass) error {
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			callerKey := funcKeyOf(pass.Pkg, fn, pass.Info)
			if _, callerDeprecated := pass.World.DeprecationNote(callerKey); callerDeprecated {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				key := calleeKey(pass.Info, call)
				if key == "" || key == callerKey {
					return true
				}
				if note, ok := pass.World.DeprecationNote(key); ok {
					pass.Reportf(call.Pos(), "call to deprecated %s — %s",
						shortFuncName(key), strings.TrimSpace(strings.TrimPrefix(note, "Deprecated:")))
				}
				return true
			})
		}
	}
	return nil
}

func isTestFile(pass *Pass, file *ast.File) bool {
	name := pass.Fset.Position(file.Package).Filename
	return strings.HasSuffix(name, "_test.go")
}

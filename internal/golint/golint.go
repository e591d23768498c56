// Package golint is a dependency-free static-analysis framework in the
// shape of go/analysis, plus the analyzers that encode this repository's
// hot-path and determinism invariants (see analyzers.go).
//
// The repo carries zero external dependencies, so the x/tools analysis
// driver is not available; this package provides the minimal equivalent
// on top of go/ast, go/types and the source importer: load packages,
// type-check them, run analyzers, collect position-tagged diagnostics.
// The cmd/vaxvet multichecker drives it over the whole module in CI.
package golint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Msg      string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Msg)
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Analyzer is one checker: a name for diagnostics, documentation, and a
// run function over a single package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Msg:      fmt.Sprintf(format, args...),
	})
}

// Run applies every analyzer to every package and returns the collected
// diagnostics in file/line order.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, an := range analyzers {
			an.Run(&Pass{Analyzer: an, Pkg: pkg, diags: &diags})
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// WalkStack traverses root in depth-first order, calling fn with each
// node and its ancestor stack (outermost first, excluding the node
// itself). The stack slice is reused between calls; copy it to retain.
func WalkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// NilGuarded reports whether some enclosing if-statement proves the
// expression rendered as exprStr non-nil at the flagged node: the node
// sits inside the body (not the else branch) of an if whose condition
// contains the conjunct `exprStr != nil`. This is the repo's sanctioned
// telemetry pattern — `if e.Probe != nil { e.Probe.Cycle(...) }` — so
// the guard must dominate the call, which body membership guarantees.
func NilGuarded(stack []ast.Node, exprStr string) bool {
	for i := len(stack) - 1; i > 0; i-- {
		ifStmt, ok := stack[i-1].(*ast.IfStmt)
		if !ok {
			continue
		}
		if stack[i] != ast.Node(ifStmt.Body) {
			continue
		}
		if condProvesNonNil(ifStmt.Cond, exprStr) {
			return true
		}
	}
	return false
}

// condProvesNonNil matches `X != nil` conjuncts (through && chains and
// parentheses) against the printed receiver expression.
func condProvesNonNil(cond ast.Expr, exprStr string) bool {
	switch c := cond.(type) {
	case *ast.ParenExpr:
		return condProvesNonNil(c.X, exprStr)
	case *ast.BinaryExpr:
		if c.Op == token.LAND {
			return condProvesNonNil(c.X, exprStr) || condProvesNonNil(c.Y, exprStr)
		}
		if c.Op == token.NEQ {
			if isNil(c.Y) && types.ExprString(c.X) == exprStr {
				return true
			}
			if isNil(c.X) && types.ExprString(c.Y) == exprStr {
				return true
			}
		}
	}
	return false
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// InterfaceReceiver returns the printed receiver expression of a method
// call through an interface, or ok=false for concrete-type calls,
// function values, conversions and builtins. Devirtualized calls are
// the hot path's whole point, so concrete calls never need guards.
func InterfaceReceiver(pkg *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	selection, ok := pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return "", false
	}
	if _, isIface := selection.Recv().Underlying().(*types.Interface); !isIface {
		return "", false
	}
	return types.ExprString(sel.X), true
}

// IsBuiltinCall reports whether call invokes the named builtin.
func IsBuiltinCall(pkg *Package, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := pkg.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// PkgFuncCall returns (package path, function name) when call is a
// direct call of a package-level function through an imported package
// name, e.g. time.Now() or rand.Intn(6).
func PkgFuncCall(pkg *Package, call *ast.CallExpr) (path, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := pkg.Info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

package sched

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// rationalOps are the rational.Rat methods that compute or compare times.
var rationalOps = map[string]bool{
	"Add": true, "Sub": true, "Mul": true, "Div": true, "MulInt": true, "DivInt": true,
	"Ceil": true, "Floor": true, "Less": true, "LessEq": true, "Cmp": true,
}

// printingHelpers are the functions of gantt.go that may still compute
// on rationals: they lay out and format times for people to read.
var printingHelpers = map[string]bool{"GanttChart": true, "fmtMs": true}

// TestSchedArithmeticOnTicks pins the package's boundary: schedules are
// ticks of their tick table, so no non-test file calls a rational
// arithmetic or comparison method outside gantt.go's printing helpers.
// Rationals are built with Scale.FromTicks only where a value leaves the
// package. The check goes by method name, so a call of that name on any
// receiver counts.
func TestSchedArithmeticOnTicks(t *testing.T) {
	t.Parallel()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var calls []string
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && path == "gantt.go" && printingHelpers[fn.Name.Name] {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && rationalOps[sel.Sel.Name] {
					calls = append(calls, fset.Position(call.Pos()).String()+": "+sel.Sel.Name)
				}
				return true
			})
		}
	}
	if len(calls) > 0 {
		t.Fatalf("rational arithmetic outside gantt.go's printing helpers:\n%s", strings.Join(calls, "\n"))
	}
}

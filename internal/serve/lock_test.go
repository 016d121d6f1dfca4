package serve

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestServeDeclaresOneMutex pins the package's locking rule: Cache.mu is
// its only mutex. A lock-order cycle needs two locks, so a second
// sync.Mutex or sync.RWMutex anywhere in the package's non-test files —
// the only way to form an inversion here — fails this test.
func TestServeDeclaresOneMutex(t *testing.T) {
	t.Parallel()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var locks []string
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		locks = append(locks, mutexDecls(fset, f)...)
	}
	if len(locks) != 1 {
		t.Fatalf("serve declares %d mutexes, want exactly one (Cache.mu):\n%s", len(locks), strings.Join(locks, "\n"))
	}
}

// mutexDecls lists, by position, every sync.Mutex or sync.RWMutex that
// the file declares: one per name of a struct field or var of a mutex
// type (pointers included), and one per other mention of the type, such
// as new(sync.Mutex) or an embedded field.
func mutexDecls(fset *token.FileSet, f *ast.File) []string {
	syncName := ""
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "sync" {
			syncName = "sync"
			if imp.Name != nil {
				syncName = imp.Name.Name
			}
		}
	}
	if syncName == "" {
		return nil
	}
	isMutex := func(e ast.Expr) bool {
		if star, ok := e.(*ast.StarExpr); ok {
			e = star.X
		}
		sel, ok := e.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Mutex" && sel.Sel.Name != "RWMutex") {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		return ok && pkg.Name == syncName
	}
	var out []string
	add := func(pos token.Pos, n int) {
		for i := 0; i < n; i++ {
			out = append(out, fset.Position(pos).String())
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Field:
			if isMutex(n.Type) {
				add(n.Pos(), max(1, len(n.Names)))
				return false
			}
		case *ast.ValueSpec:
			if n.Type != nil && isMutex(n.Type) {
				add(n.Pos(), len(n.Names))
				return false
			}
		case ast.Expr:
			if isMutex(n) {
				add(n.Pos(), 1)
				return false
			}
		}
		return true
	})
	return out
}

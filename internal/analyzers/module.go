package analyzers

// This file defines the module-wide analyzer layer: where an Analyzer
// sees one package directory at a time, a ModuleAnalyzer sees every
// parsed package of the module in a single pass, which is what an
// interprocedural (call-graph) analysis needs.

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// ModulePackage is one parsed package directory of the module.
type ModulePackage struct {
	// Dir is the module-relative directory ("." for the root).
	Dir string
	// Path is the directory's import path (module path + "/" + Dir).
	Path string
	// Files are the parsed non-test sources, in file-name order.
	Files []*ast.File
}

// ModulePass carries one module analyzer over the whole parsed tree.
type ModulePass struct {
	// Analyzer is the pass being run.
	Analyzer *ModuleAnalyzer
	// Fset resolves token positions.
	Fset *token.FileSet
	// Module is the module path from go.mod ("" when absent).
	Module string
	// Packages lists every parsed directory, sorted by Dir.
	Packages []*ModulePackage

	suppressed map[string]map[int]bool // file -> suppressed lines
	out        *[]Diagnostic
}

// Reportf records a finding unless an fppnlint:ignore comment suppresses
// its line.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppressed[position.Filename][position.Line] {
		return
	}
	*p.out = append(*p.out, Diagnostic{
		Position: position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Internal reports whether path names a package inside the module.
func (p *ModulePass) Internal(path string) bool {
	return p.Module != "" && (path == p.Module || strings.HasPrefix(path, p.Module+"/"))
}

// ModuleAnalyzer is one custom module-wide lint pass.
type ModuleAnalyzer struct {
	// Name identifies the analyzer in reports.
	Name string
	// Doc is a one-paragraph description.
	Doc string
	// Run inspects the module and reports findings through the pass.
	Run func(*ModulePass)
}

// AllModule is the module-analyzer registry, in report order.
var AllModule = []*ModuleAnalyzer{JobReach, PlanFreeze}

// importedPath returns the path of the import that file binds to the
// given local name, or "" when no import uses that name. The default
// binding is approximated syntactically by the last path element.
func importedPath(file *ast.File, name string) string {
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		local := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			local = path[i+1:]
		}
		if imp.Name != nil {
			local = imp.Name.Name
		}
		if local == name {
			return path
		}
	}
	return ""
}

// Package analyzers implements the repository's custom determinism lints
// as go/analysis-style passes over the standard library's go/ast — the
// golang.org/x/tools analysis driver is deliberately not a dependency.
// Three analyzers guard the properties the paper's reproduction rests on:
//
//   - noclock: the deterministic packages (internal/core, taskgraph,
//     sched, rational) must not read wall-clock time or use the global
//     math/rand generator;
//   - maporder: iterating a Go map to build a slice without sorting it
//     afterwards leaks nondeterministic ordering into output;
//   - nakedgo: goroutines may only be spawned by the audited concurrency
//     layers (internal/parallel, internal/plan).
//
// On top of the per-directory passes, two module-wide (interprocedural)
// analyzers share a function call graph over the whole module: jobreach
// reports the same classes of nondeterminism when they are *reachable*
// from job functions in internal/apps and examples, even through layers
// of helpers in packages the direct passes don't guard; planfreeze
// reports writes to the compiled artifacts (plan.Plan, core.CompiledNet)
// reachable outside the compile entry points — compiled plans are
// immutable shared values, per-run state belongs in plan.RunState.
//
// A finding can be suppressed by a "fppnlint:ignore" comment on, or on
// the line above, the offending line. The cmd/fppnlint-go command drives
// all the analyzers over the whole module via CheckAll.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	// Position locates the finding in the source tree.
	Position token.Position `json:"position"`
	// Analyzer names the pass that produced it.
	Analyzer string `json:"analyzer"`
	// Message describes the violation.
	Message string `json:"message"`
}

// String renders the diagnostic in the familiar "file:line:col: name:
// message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// Pass carries one analyzer run over one package directory.
type Pass struct {
	// Analyzer is the pass being run.
	Analyzer *Analyzer
	// Fset resolves token positions.
	Fset *token.FileSet
	// Files are the parsed non-test sources of the directory.
	Files []*ast.File
	// Dir is the module-relative directory, e.g. "internal/core".
	Dir string

	suppressed map[string]map[int]bool // file -> suppressed lines
	out        *[]Diagnostic
}

// Reportf records a finding unless an fppnlint:ignore comment suppresses
// its line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
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

// Analyzer is one custom lint pass.
type Analyzer struct {
	// Name identifies the analyzer in reports.
	Name string
	// Doc is a one-paragraph description.
	Doc string
	// Applies filters the module-relative directories the pass runs on;
	// nil means every directory.
	Applies func(dir string) bool
	// Run inspects the package and reports findings through the pass.
	Run func(*Pass)
}

// All is the analyzer registry, in report order.
var All = []*Analyzer{NoClock, MapOrder, NakedGo}

// ignoreMarker suppresses findings on its own line and the next.
const ignoreMarker = "fppnlint:ignore"

// moduleTree is one parse of the whole source tree under a root,
// shared between the per-directory and the module-wide analyzers.
type moduleTree struct {
	fset       *token.FileSet
	module     string   // module path from go.mod ("" when absent)
	dirs       []string // sorted module-relative directories
	packages   map[string]*ModulePackage
	suppressed map[string]map[int]bool // file -> suppressed lines
}

// loadTree parses every non-test Go file under root (skipping testdata,
// hidden and vendor directories), grouped by directory.
func loadTree(root string) (*moduleTree, error) {
	dirs := make(map[string][]string)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dirs[filepath.Dir(path)] = append(dirs[filepath.Dir(path)], path)
		return nil
	})
	if err != nil {
		return nil, err
	}

	tree := &moduleTree{
		fset:       token.NewFileSet(),
		module:     moduleName(root),
		packages:   make(map[string]*ModulePackage),
		suppressed: make(map[string]map[int]bool),
	}
	var dirNames []string
	for dir := range dirs {
		dirNames = append(dirNames, dir)
	}
	sort.Strings(dirNames)
	for _, dir := range dirNames {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		rel = filepath.ToSlash(rel)
		pkg := &ModulePackage{Dir: rel, Path: importPathFor(tree.module, rel)}
		sort.Strings(dirs[dir])
		for _, path := range dirs[dir] {
			file, err := parser.ParseFile(tree.fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parse %s: %w", path, err)
			}
			pkg.Files = append(pkg.Files, file)
			tree.suppressed[tree.fset.Position(file.Pos()).Filename] = suppressedLines(tree.fset, file)
		}
		tree.dirs = append(tree.dirs, rel)
		tree.packages[rel] = pkg
	}
	return tree, nil
}

// moduleName extracts the module path from root's go.mod, or "" when the
// file is absent or malformed (cross-package resolution is then disabled).
func moduleName(root string) string {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// importPathFor maps a module-relative directory to its import path.
func importPathFor(module, rel string) string {
	if rel == "." || rel == "" {
		return module
	}
	if module == "" {
		return rel
	}
	return module + "/" + rel
}

// Check parses every non-test Go file under root (skipping testdata,
// hidden and vendor directories) and runs the per-directory analyzers,
// returning the findings sorted by position.
func Check(root string, analyzers []*Analyzer) ([]Diagnostic, error) {
	return runChecks(root, analyzers, nil)
}

// CheckAll runs the per-directory analyzers plus the module-wide
// (interprocedural) analyzers over one parse of the tree under root.
func CheckAll(root string) ([]Diagnostic, error) {
	return runChecks(root, All, AllModule)
}

func runChecks(root string, dirAnalyzers []*Analyzer, moduleAnalyzers []*ModuleAnalyzer) ([]Diagnostic, error) {
	tree, err := loadTree(root)
	if err != nil {
		return nil, err
	}
	var out []Diagnostic
	for _, rel := range tree.dirs {
		pkg := tree.packages[rel]
		for _, a := range dirAnalyzers {
			if a.Applies != nil && !a.Applies(rel) {
				continue
			}
			a.Run(&Pass{
				Analyzer:   a,
				Fset:       tree.fset,
				Files:      pkg.Files,
				Dir:        rel,
				suppressed: tree.suppressed,
				out:        &out,
			})
		}
	}
	if len(moduleAnalyzers) > 0 {
		pkgs := make([]*ModulePackage, 0, len(tree.dirs))
		for _, rel := range tree.dirs {
			pkgs = append(pkgs, tree.packages[rel])
		}
		for _, a := range moduleAnalyzers {
			a.Run(&ModulePass{
				Analyzer:   a,
				Fset:       tree.fset,
				Module:     tree.module,
				Packages:   pkgs,
				suppressed: tree.suppressed,
				out:        &out,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// suppressedLines collects the lines covered by fppnlint:ignore comments:
// the comment's own line (trailing form) and the line after it.
func suppressedLines(fset *token.FileSet, file *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, group := range file.Comments {
		for _, c := range group.List {
			if !strings.Contains(c.Text, ignoreMarker) {
				continue
			}
			line := fset.Position(c.Pos()).Line
			lines[line] = true
			lines[line+1] = true
		}
	}
	return lines
}

// dirIn reports whether dir equals or is nested under any of the given
// module-relative prefixes.
func dirIn(dir string, prefixes ...string) bool {
	for _, p := range prefixes {
		if dir == p || strings.HasPrefix(dir, p+"/") {
			return true
		}
	}
	return false
}

// importName returns the name under which the file imports path, or ""
// when the import is absent (or blank).
func importName(file *ast.File, path string) string {
	for _, imp := range file.Imports {
		if strings.Trim(imp.Path.Value, `"`) != path {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" {
				return ""
			}
			return imp.Name.Name
		}
		if i := strings.LastIndex(path, "/"); i >= 0 {
			return path[i+1:]
		}
		return path
	}
	return ""
}

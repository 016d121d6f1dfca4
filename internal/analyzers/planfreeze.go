package analyzers

// planfreeze is the plan-immutability pass. Compiled artifacts —
// plan.Plan and core.CompiledNet — are frozen after their compile entry
// points return: every later mutation would let one run's bookkeeping
// leak into the next run (or into a concurrently sharing runtime), which
// is exactly the class of bug the RunState split exists to prevent.
//
// The pass takes the shared module call graph (callgraph.go) and flags
// every assignment through a frozen-typed receiver or parameter (field
// writes, element writes, increments) in any function reachable from the
// module's API surface without passing through a compile entry point.
// Writes to locally created values are exempt — that is how the compile
// pipeline itself builds the artifact — and so are writes inside helpers
// that only the compile entry points reach.
//
// The pass also guards the frozen artifacts' backing storage from the
// other direction: per-run state types (plan.RunState) hold a reference
// to the artifact they replay, and a RunState field assignment whose
// value selects into the Plan — rs.scratch = rs.p.table, or p := rs.p;
// rs.buf = p.table[:0] — retains a pointer into Plan-owned memory that
// later runs write through, silently breaking the immutability the
// happens-before verdict depends on. Storing the bare artifact reference
// itself (rs.p, during Reset) is the designed ownership link and exempt.
//
// Like jobreach, resolution is syntactic: frozen values are recognized
// when they appear as the receiver or as parameters of the enclosing
// function, or as locals bound directly from a retainer's artifact
// reference field (p := rs.p); other aliases are not tracked.

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// PlanFreeze reports post-compilation mutations of compiled artifacts
// reachable outside the compile entry points.
var PlanFreeze = &ModuleAnalyzer{
	Name: "planfreeze",
	Doc: "report writes to plan.Plan or core.CompiledNet fields reachable outside the " +
		"compile entry points; compiled plans are immutable, per-run state belongs in RunState",
	Run: runPlanFreeze,
}

// frozenTypes names the immutable compiled artifacts per module-relative
// directory.
var frozenTypes = map[string]map[string]bool{
	"internal/plan": {"Plan": true},
	"internal/core": {"CompiledNet": true},
}

// compileEntries are the only functions allowed to populate a frozen
// artifact (directly or through helpers only they reach).
var compileEntries = map[string]map[string]bool{
	"internal/plan": {"Compile": true, "CompileOpts": true},
	"internal/core": {"CompileNetwork": true, "CompileNetworkOpts": true},
}

// retainerSpec describes a per-run state type that references a frozen
// artifact: the field holding the reference and the artifact's display
// label.
type retainerSpec struct {
	field    string
	artifact string
}

// retainerTypes names, per module-relative directory, the per-run state
// types whose fields must never alias storage owned by their frozen
// artifact.
var retainerTypes = map[string]map[string]retainerSpec{
	"internal/plan": {"RunState": {field: "p", artifact: "plan.Plan"}},
}

// frozenWrite is one mutation of a frozen value inside a function body,
// or (src != "") a store that retains frozen-owned memory in per-run
// state.
type frozenWrite struct {
	pos  token.Pos
	expr string // rendered LHS, e.g. "p.jobProc[i]"
	typ  string // the frozen type written through, e.g. "plan.Plan"
	src  string // for alias findings: the rendered frozen-rooted value
}

func runPlanFreeze(p *ModulePass) {
	g := newCallGraph(p)
	entries := make(map[string]bool)
	writes := make(map[string][]frozenWrite)
	for _, key := range g.order {
		n := g.nodes[key]
		g.resolveCalls(n)
		if compileEntries[n.pkg.Dir][strings.TrimPrefix(key, n.pkg.Path+".")] && n.recv == nil {
			entries[key] = true
		}
		if w := findFrozenWrites(p, n); len(w) > 0 {
			writes[key] = w
		}
	}
	if len(writes) == 0 {
		return
	}

	// Roots: every function callable from outside the compile pipeline —
	// exported functions and methods, main/init, and any function no
	// module-internal caller reaches (a conservative stand-in for
	// external entry). BFS from each root, never traversing into a
	// compile entry: a write only survives if some path that avoids the
	// compile pipeline reaches it.
	called := make(map[string]bool)
	for _, key := range g.order {
		for _, c := range g.nodes[key].calls {
			called[c] = true
		}
	}
	var roots []string
	for _, key := range g.order {
		if entries[key] {
			continue
		}
		name := key[strings.LastIndex(key, ".")+1:]
		if ast.IsExported(name) || name == "main" || name == "init" || !called[key] {
			roots = append(roots, key)
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		a := p.Fset.Position(g.nodes[roots[i]].pos)
		b := p.Fset.Position(g.nodes[roots[j]].pos)
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})

	reported := make(map[token.Pos]bool)
	for _, root := range roots {
		parent := map[string]string{root: ""}
		queue := []string{root}
		for len(queue) > 0 {
			key := queue[0]
			queue = queue[1:]
			for _, w := range writes[key] {
				if reported[w.pos] {
					continue
				}
				reported[w.pos] = true
				if w.src != "" {
					p.Reportf(w.pos,
						"write %s retains %s — memory owned by the compiled %s — in per-run state (call path: %s); "+
							"aliasing writes would break the immutability the happens-before verdict relies on",
						w.expr, w.src, w.typ, g.chain(parent, key))
					continue
				}
				p.Reportf(w.pos,
					"write %s mutates a compiled %s outside the compile pipeline (call path: %s); "+
						"compiled artifacts are frozen, move per-run state to RunState",
					w.expr, w.typ, g.chain(parent, key))
			}
			for _, c := range g.nodes[key].calls {
				if entries[c] {
					continue
				}
				if _, seen := parent[c]; !seen {
					parent[c] = key
					queue = append(queue, c)
				}
			}
		}
	}
}

// findFrozenWrites scans one function for assignments through its
// frozen-typed receiver or parameters, and for stores that retain
// frozen-owned memory in a retainer's fields.
func findFrozenWrites(p *ModulePass, n *funcNode) []frozenWrite {
	frozen := make(map[string]string)         // identifier -> frozen type label
	retainer := make(map[string]retainerSpec) // identifier -> retainer spec
	bind := func(names []*ast.Ident, typ ast.Expr) {
		label, isFrozen := frozenTypeOf(p, n, typ)
		spec, isRetainer := retainerSpecOf(p, n, typ)
		if !isFrozen && !isRetainer {
			return
		}
		for _, name := range names {
			if name.Name == "_" {
				continue
			}
			if isFrozen {
				frozen[name.Name] = label
			} else {
				retainer[name.Name] = spec
			}
		}
	}
	if n.recv != nil {
		for _, f := range n.recv.List {
			bind(f.Names, f.Type)
		}
	}
	if n.ftype != nil && n.ftype.Params != nil {
		for _, f := range n.ftype.Params.List {
			bind(f.Names, f.Type)
		}
	}
	if len(frozen) == 0 && len(retainer) == 0 {
		return nil
	}

	var out []frozenWrite
	record := func(lhs ast.Expr) {
		base, chain := lhsRoot(lhs)
		if base == nil || len(chain) == 0 {
			// A bare "p = ..." rebinds the local variable; the pointed-to
			// artifact is untouched.
			return
		}
		typ, ok := frozen[base.Name]
		if !ok {
			return
		}
		out = append(out, frozenWrite{
			pos:  lhs.Pos(),
			expr: base.Name + strings.Join(chain, ""),
			typ:  typ,
		})
	}
	recordAlias := func(lhs, rhs ast.Expr) {
		base, chain := lhsRoot(lhs)
		if base == nil || len(chain) == 0 {
			return
		}
		if _, ok := retainer[base.Name]; !ok {
			return
		}
		src, artifact, found := deepFrozenRef(rhs, frozen, retainer)
		if !found {
			return
		}
		out = append(out, frozenWrite{
			pos:  lhs.Pos(),
			expr: base.Name + strings.Join(chain, ""),
			typ:  artifact,
			src:  src,
		})
	}
	ast.Inspect(n.body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.AssignStmt:
			if node.Tok == token.DEFINE {
				// x := ... introduces new locals; also un-track any
				// frozen or retainer name it shadows. A local bound
				// directly from a retainer's artifact reference field
				// (p := rs.p) is a frozen alias and tracked as such.
				for _, lhs := range node.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						delete(frozen, id.Name)
						delete(retainer, id.Name)
					}
				}
				if len(node.Lhs) == len(node.Rhs) {
					for i, lhs := range node.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok || id.Name == "_" {
							continue
						}
						if base, chain := lhsRoot(node.Rhs[i]); base != nil && len(chain) == 1 {
							if spec, ok := retainer[base.Name]; ok && chain[0] == "."+spec.field {
								frozen[id.Name] = spec.artifact
							}
						}
					}
				}
				return true
			}
			for _, lhs := range node.Lhs {
				record(lhs)
			}
			if len(node.Lhs) == len(node.Rhs) {
				for i, lhs := range node.Lhs {
					recordAlias(lhs, node.Rhs[i])
				}
			}
		case *ast.IncDecStmt:
			record(node.X)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// deepFrozenRef scans an assigned value for an expression that selects
// into a frozen artifact — through a frozen-typed variable (p.table,
// p.table[:0]) or through a retainer's artifact reference field
// (rs.p.table). The bare reference (rs.p, or a frozen identifier alone)
// is the designed ownership link, not an alias of artifact-owned backing,
// and does not match. Call results are skipped: they copy values out, and
// flagging them would flag every len/cap derivation.
func deepFrozenRef(e ast.Expr, frozen map[string]string, retainer map[string]retainerSpec) (string, string, bool) {
	if base, chain := lhsRoot(e); base != nil && len(chain) > 0 {
		if label, ok := frozen[base.Name]; ok {
			return base.Name + strings.Join(chain, ""), label, true
		}
		if spec, ok := retainer[base.Name]; ok && chain[0] == "."+spec.field && len(chain) > 1 {
			return base.Name + strings.Join(chain, ""), spec.artifact, true
		}
	}
	var children []ast.Expr
	switch e := e.(type) {
	case *ast.ParenExpr:
		children = []ast.Expr{e.X}
	case *ast.UnaryExpr:
		children = []ast.Expr{e.X}
	case *ast.BinaryExpr:
		children = []ast.Expr{e.X, e.Y}
	case *ast.CompositeLit:
		children = e.Elts
	case *ast.KeyValueExpr:
		children = []ast.Expr{e.Value}
	case *ast.SliceExpr:
		children = []ast.Expr{e.X}
	case *ast.IndexExpr:
		children = []ast.Expr{e.X}
	case *ast.SelectorExpr:
		children = []ast.Expr{e.X}
	case *ast.StarExpr:
		children = []ast.Expr{e.X}
	}
	for _, c := range children {
		if expr, label, ok := deepFrozenRef(c, frozen, retainer); ok {
			return expr, label, ok
		}
	}
	return "", "", false
}

// lhsRoot unwraps an assignment target to its base identifier and the
// selector/index chain applied to it: p.jobProc[i] -> (p, [".jobProc",
// "[…]"]). A nil base or empty chain means the target is not a mutation
// through a tracked value.
func lhsRoot(lhs ast.Expr) (*ast.Ident, []string) {
	var chain []string
	for {
		switch e := lhs.(type) {
		case *ast.Ident:
			// Reverse: the chain was collected innermost-last.
			for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
				chain[i], chain[j] = chain[j], chain[i]
			}
			return e, chain
		case *ast.SelectorExpr:
			chain = append(chain, "."+e.Sel.Name)
			lhs = e.X
		case *ast.IndexExpr:
			chain = append(chain, "[…]")
			lhs = e.X
		case *ast.StarExpr:
			chain = append(chain, "*")
			lhs = e.X
		case *ast.ParenExpr:
			lhs = e.X
		default:
			return nil, nil
		}
	}
}

// retainerSpecOf reports whether a receiver or parameter type denotes a
// per-run retainer type, returning its spec.
func retainerSpecOf(p *ModulePass, n *funcNode, t ast.Expr) (retainerSpec, bool) {
	for {
		star, ok := t.(*ast.StarExpr)
		if !ok {
			break
		}
		t = star.X
	}
	switch t := t.(type) {
	case *ast.Ident:
		if spec, ok := retainerTypes[n.pkg.Dir][t.Name]; ok {
			return spec, true
		}
	case *ast.SelectorExpr:
		base, ok := t.X.(*ast.Ident)
		if !ok {
			return retainerSpec{}, false
		}
		imp := importedPath(n.file, base.Name)
		if !p.Internal(imp) {
			return retainerSpec{}, false
		}
		rel := strings.TrimPrefix(imp, p.Module+"/")
		if spec, ok := retainerTypes[rel][t.Sel.Name]; ok {
			return spec, true
		}
	}
	return retainerSpec{}, false
}

// frozenTypeOf reports whether a receiver or parameter type denotes one
// of the frozen artifacts, returning its display label.
func frozenTypeOf(p *ModulePass, n *funcNode, t ast.Expr) (string, bool) {
	for {
		star, ok := t.(*ast.StarExpr)
		if !ok {
			break
		}
		t = star.X
	}
	switch t := t.(type) {
	case *ast.Ident:
		if frozenTypes[n.pkg.Dir][t.Name] {
			return n.file.Name.Name + "." + t.Name, true
		}
	case *ast.SelectorExpr:
		base, ok := t.X.(*ast.Ident)
		if !ok {
			return "", false
		}
		imp := importedPath(n.file, base.Name)
		if !p.Internal(imp) {
			return "", false
		}
		rel := strings.TrimPrefix(imp, p.Module+"/")
		if frozenTypes[rel][t.Sel.Name] {
			return base.Name + "." + t.Sel.Name, true
		}
	}
	return "", false
}

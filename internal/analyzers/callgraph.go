package analyzers

// This file holds the syntactic module call graph shared by the
// interprocedural passes (jobreach, planfreeze): every function, method
// and tracked literal of the module becomes a node, and call expressions
// become edges resolved without the type checker.
//
// Resolution is deliberately conservative in both directions: plain
// identifier calls bind to same-package functions, pkg.F calls bind
// through the file's imports to module-internal packages, and x.M calls
// (x not an import) bind to every same-package method named M. Calls
// into packages outside the module, through interfaces across packages,
// or via function values are not followed.

import (
	"go/ast"
	"go/token"
	"strings"
)

// funcNode is one function, method, or tracked literal in the graph.
type funcNode struct {
	key   string // unique: importPath.name or importPath.Recv.name
	label string // display: pkgname.name or pkgname.Recv.name
	pkg   *ModulePackage
	file  *ast.File
	recv  *ast.FieldList // method receiver (nil for functions and literals)
	ftype *ast.FuncType
	body  *ast.BlockStmt
	pos   token.Pos
	calls []string
}

func (n *funcNode) addCall(key string) {
	for _, c := range n.calls {
		if c == key {
			return
		}
	}
	n.calls = append(n.calls, key)
}

// callGraph is the module call graph plus the name indexes used to
// resolve calls.
type callGraph struct {
	pass    *ModulePass
	nodes   map[string]*funcNode
	order   []string                       // node keys in declaration order
	funcs   map[string]map[string]string   // pkg path -> func name -> key
	methods map[string]map[string][]string // pkg path -> method name -> keys
}

// newCallGraph indexes every function and method of the module as a
// graph node. Call edges are not resolved yet: callers add any extra
// nodes (e.g. behavior literals) first, then run resolveCalls per node.
func newCallGraph(p *ModulePass) *callGraph {
	g := &callGraph{
		pass:    p,
		nodes:   make(map[string]*funcNode),
		funcs:   make(map[string]map[string]string),
		methods: make(map[string]map[string][]string),
	}
	for _, pkg := range p.Packages {
		g.funcs[pkg.Path] = make(map[string]string)
		g.methods[pkg.Path] = make(map[string][]string)
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				name := fn.Name.Name
				node := &funcNode{
					pkg:   pkg,
					file:  file,
					recv:  fn.Recv,
					ftype: fn.Type,
					body:  fn.Body,
					pos:   fn.Pos(),
				}
				if recv := receiverType(fn); recv != "" {
					node.key = pkg.Path + "." + recv + "." + name
					node.label = file.Name.Name + "." + recv + "." + name
					g.methods[pkg.Path][name] = append(g.methods[pkg.Path][name], node.key)
				} else {
					node.key = pkg.Path + "." + name
					node.label = file.Name.Name + "." + name
					g.funcs[pkg.Path][name] = node.key
				}
				g.nodes[node.key] = node
				g.order = append(g.order, node.key)
			}
		}
	}
	return g
}

// resolveCalls fills one node's outgoing call edges.
func (g *callGraph) resolveCalls(n *funcNode) {
	ast.Inspect(n.body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, key := range g.calleeKeys(n, call) {
			n.addCall(key)
		}
		return true
	})
}

// calleeKeys resolves one call expression to its candidate graph nodes,
// following the conservative rules documented at the top of this file:
// plain identifiers bind to same-package functions, pkg.F binds through
// the file's imports to module-internal packages, and x.M binds to every
// same-package method named M.
func (g *callGraph) calleeKeys(n *funcNode, call *ast.CallExpr) []string {
	path := n.pkg.Path
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if key, ok := g.funcs[path][fun.Name]; ok {
			return []string{key}
		}
	case *ast.SelectorExpr:
		base, ok := fun.X.(*ast.Ident)
		if !ok {
			// Method call on a compound expression: bind by name
			// within the package.
			return g.methods[path][fun.Sel.Name]
		}
		if imp := importedPath(n.file, base.Name); imp != "" {
			if g.pass.Internal(imp) {
				if key, ok := g.funcs[imp][fun.Sel.Name]; ok {
					return []string{key}
				}
			}
			return nil
		}
		return g.methods[path][fun.Sel.Name]
	}
	return nil
}

// receiverType names a method's receiver type, unwrapping pointers and
// type parameters.
func receiverType(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	for {
		switch u := t.(type) {
		case *ast.StarExpr:
			t = u.X
		case *ast.IndexExpr:
			t = u.X
		case *ast.IndexListExpr:
			t = u.X
		case *ast.Ident:
			return u.Name
		default:
			return "?"
		}
	}
}

// chain renders the call path root → ... → key from a BFS parent map.
func (g *callGraph) chain(parent map[string]string, key string) string {
	var labels []string
	for k := key; k != ""; k = parent[k] {
		labels = append(labels, g.nodes[k].label)
	}
	for i, j := 0, len(labels)-1; i < j; i, j = i+1, j-1 {
		labels[i], labels[j] = labels[j], labels[i]
	}
	return strings.Join(labels, " → ")
}

package analyzers

// lockorder is the lock-order deadlock pass. The serving data plane
// (internal/serve) and the concurrent replayer (internal/plan) are the
// module's only shared-mutable-state code; a lock
// inversion between any two of their mutexes deadlocks the daemon under
// load, and the mixed-access variant — a field written under a mutex but
// read bare — is the race that breaks Proposition 2.1's determinism
// argument before the scheduler even runs.
//
// The pass builds a module-wide lock-acquisition graph. Every
// sync.Mutex/RWMutex is named as a lock class: a struct field (keyed by
// owning type), a package-level var, or a function-local var. Each
// function body is walked statement by statement with the set of locks
// held: Lock/RLock acquires, explicit Unlock/RUnlock releases, and a
// deferred Unlock keeps the lock held to function end. Held sets
// propagate through the call graph two ways: transitively-acquired locks
// flow up (calling f while holding L edges L before everything f's cone
// acquires), and held-at-entry sets flow down as the intersection over
// all internal call sites, so helpers with a called-with-lock-held
// convention (insertLocked, maybeAdvance) are analyzed under their real
// calling context. Function literals are separate scopes with an empty
// held set — a spawned goroutine holds nothing it did not lock itself.
//
// An edge A → B means "B was acquired while A was held". Any cycle is
// reported once, with the full call-path witness for every constituent
// edge; an A → A edge is reported as a non-reentrant self-deadlock. The
// mixed-access check then flags struct fields that are written under the
// owning struct's mutex but also accessed bare (or written bare while
// read under the lock) — fields are either locked on every access or
// immutable, never both.
//
// Like the other call-graph passes, resolution is syntactic and
// conservative: locks on compound expressions fall back to the field
// name within the package, interfaces and function values are not
// followed, and branch bodies are analyzed with a cloned held set.

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// LockOrder reports lock-order cycles (potential deadlocks) and
// mixed locked/bare field access across the module.
var LockOrder = &ModuleAnalyzer{
	Name: "lockorder",
	Doc: "report lock-acquisition cycles through the call graph as potential deadlocks, " +
		"plus struct fields accessed both under their mutex and bare",
	Run: runLockOrder,
}

// lockID names one lock class: a struct-field mutex (owner = type
// name), a package-level mutex var (owner empty), or a function-local
// mutex (owner = function key).
type lockID struct {
	key   string // unique: dir|owner|name
	label string // display: pkg.Type.name, pkg.name, or pkg.fn.name
}

// lockStruct describes one struct type declaring at least one sync
// mutex field.
type lockStruct struct {
	pkgName  string
	file     *ast.File           // declaring file, for import resolution
	mutex    map[string]bool     // sync.Mutex / sync.RWMutex fields
	syncOnly map[string]bool     // other sync./sync/atomic.-typed fields, excluded from the mixed check
	fields   map[string]bool     // every named field
	ftypes   map[string]ast.Expr // declared field types
	embedded bool                // embeds sync.Mutex/RWMutex directly
}

// lockPkg is the per-package mutex inventory.
type lockPkg struct {
	name    string
	structs map[string]*lockStruct
	vars    map[string]bool     // package-level mutex vars
	owners  map[string][]string // mutex field name -> owning type names
}

// lockRef binds a variable to a mutex-carrying struct instance.
type lockRef struct{ dir, typ string }

// lockAcq is one Lock/RLock call with the locks held just before it.
type lockAcq struct {
	fn   *funcNode
	lock lockID
	pos  token.Pos
	held []lockID
	lit  bool // inside a function literal: entry locks do not apply
}

// lockCall is one resolved call with the locks held at the call site.
type lockCall struct {
	fn      *funcNode
	callees []string
	pos     token.Pos
	held    []lockID
	lit     bool
}

// lockAccess is one read or write of a tracked struct field.
type lockAccess struct {
	typeKey string // dir|TypeName
	field   string
	fn      *funcNode
	pos     token.Pos
	write   bool
	held    []lockID
	lit     bool
}

// lockOut accumulates the walker's events across the module.
type lockOut struct {
	acqs  []lockAcq
	calls []lockCall
	accs  []lockAccess
}

func runLockOrder(p *ModulePass) {
	pkgs := collectLockPkgs(p)
	any := false
	for _, pkg := range pkgs {
		if len(pkg.structs) > 0 || len(pkg.vars) > 0 {
			any = true
		}
	}
	if !any {
		return
	}
	g := newCallGraph(p)
	paths := make(map[string]string, len(p.Packages))
	for _, pkg := range p.Packages {
		paths[pkg.Dir] = pkg.Path
	}
	out := &lockOut{}
	for _, key := range g.order {
		w := &lockWalker{
			p: p, g: g, pkgs: pkgs, paths: paths, n: g.nodes[key], out: out,
			vars:  make(map[string]lockRef),
			local: make(map[string]lockID),
		}
		w.run()
	}
	adj := lockAdjacency(out)
	entry := lockEntryStates(g, out, adj)
	trans := lockTransAcquires(g, out, adj)
	edges, selfs := lockEdges(p, g, out, adj, entry, trans)
	reportLockCycles(p, edges, selfs)
	reportMixedAccess(p, pkgs, out, entry)
}

// collectLockPkgs inventories every package's mutex-carrying structs and
// package-level mutex vars.
func collectLockPkgs(p *ModulePass) map[string]*lockPkg {
	pkgs := make(map[string]*lockPkg)
	for _, pkg := range p.Packages {
		lp := &lockPkg{
			structs: make(map[string]*lockStruct),
			vars:    make(map[string]bool),
			owners:  make(map[string][]string),
		}
		for _, file := range pkg.Files {
			lp.name = file.Name.Name
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						st, ok := spec.Type.(*ast.StructType)
						if !ok {
							continue
						}
						collectLockStruct(lp, file, spec.Name.Name, st)
					case *ast.ValueSpec:
						if gd.Tok == token.VAR && spec.Type != nil && syncKind(file, spec.Type) == syncMutex {
							for _, name := range spec.Names {
								lp.vars[name.Name] = true
							}
						}
					}
				}
			}
		}
		for typ, st := range lp.structs {
			for f := range st.mutex {
				lp.owners[f] = append(lp.owners[f], typ)
			}
		}
		for f := range lp.owners {
			sort.Strings(lp.owners[f])
		}
		pkgs[pkg.Dir] = lp
	}
	return pkgs
}

const (
	syncNone = iota
	syncMutex
	syncOther // non-mutex sync./sync/atomic. type, excluded from the mixed check
)

// syncKind classifies a field or var type expression.
func syncKind(file *ast.File, t ast.Expr) int {
	for {
		star, ok := t.(*ast.StarExpr)
		if !ok {
			break
		}
		t = star.X
	}
	sel, ok := t.(*ast.SelectorExpr)
	if !ok {
		return syncNone
	}
	base, ok := sel.X.(*ast.Ident)
	if !ok {
		return syncNone
	}
	switch importedPath(file, base.Name) {
	case "sync":
		if sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex" {
			return syncMutex
		}
		return syncOther
	case "sync/atomic":
		return syncOther
	}
	return syncNone
}

// collectLockStruct records one struct declaration in the inventory when
// it declares or embeds a mutex.
func collectLockStruct(lp *lockPkg, file *ast.File, name string, st *ast.StructType) {
	info := &lockStruct{
		pkgName:  file.Name.Name,
		file:     file,
		mutex:    make(map[string]bool),
		syncOnly: make(map[string]bool),
		fields:   make(map[string]bool),
		ftypes:   make(map[string]ast.Expr),
	}
	for _, f := range st.Fields.List {
		kind := syncKind(file, f.Type)
		if len(f.Names) == 0 {
			if kind == syncMutex {
				info.embedded = true
			}
			continue
		}
		for _, fn := range f.Names {
			info.fields[fn.Name] = true
			info.ftypes[fn.Name] = f.Type
			switch kind {
			case syncMutex:
				info.mutex[fn.Name] = true
			case syncOther:
				info.syncOnly[fn.Name] = true
			}
		}
	}
	if len(info.mutex) > 0 || info.embedded {
		lp.structs[name] = info
	}
}

// lockWalker walks one function body tracking the held-lock set and the
// variable -> struct bindings.
type lockWalker struct {
	p     *ModulePass
	g     *callGraph
	pkgs  map[string]*lockPkg
	paths map[string]string // module-relative dir -> import path
	n     *funcNode
	out   *lockOut
	vars  map[string]lockRef
	local map[string]lockID
	inLit bool
}

// callees resolves a call's candidate nodes. It refines the call graph's
// name-based fallback for compound receivers rooted in a tracked struct
// var: when the declared field type is known, a module-internal type
// binds exactly its method and an external type (c.lru.Len() on a
// container/list.List) binds nothing — without this, every same-package
// method of the same name would be charged with the callee's locks.
func (w *lockWalker) callees(call *ast.CallExpr) []string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if ok {
		if inner, ok := sel.X.(*ast.SelectorExpr); ok {
			if root, ok := inner.X.(*ast.Ident); ok {
				if ref, tracked := w.vars[root.Name]; tracked {
					if st := w.structOf(ref); st != nil {
						ft, known := st.ftypes[inner.Sel.Name]
						if !known {
							return nil // not a declared field: no internal binding
						}
						dir, typ, resolved := moduleTypeOfIn(w.p, st.file, ref.dir, ft)
						if !resolved {
							return nil // external or builtin receiver type
						}
						key := w.paths[dir] + "." + typ + "." + sel.Sel.Name
						if w.g.nodes[key] != nil {
							return []string{key}
						}
						return nil
					}
				}
			}
		}
	}
	return w.g.calleeKeys(w.n, call)
}

func (w *lockWalker) run() {
	w.bindSignature(w.n.recv, w.n.ftype)
	held := []lockID{}
	w.stmts(w.n.body.List, &held)
}

func (w *lockWalker) bindSignature(recv *ast.FieldList, ftype *ast.FuncType) {
	if recv != nil {
		for _, f := range recv.List {
			w.bindField(f)
		}
	}
	if ftype != nil && ftype.Params != nil {
		for _, f := range ftype.Params.List {
			w.bindField(f)
		}
	}
}

func (w *lockWalker) bindField(f *ast.Field) {
	for _, name := range f.Names {
		delete(w.vars, name.Name)
		delete(w.local, name.Name)
	}
	ref, ok := w.structRefOf(f.Type)
	if !ok {
		return
	}
	for _, name := range f.Names {
		if name.Name != "_" {
			w.vars[name.Name] = ref
		}
	}
}

// structRefOf resolves a type expression to a tracked mutex-carrying
// struct.
func (w *lockWalker) structRefOf(t ast.Expr) (lockRef, bool) {
	dir, typ, ok := moduleTypeOf(w.p, w.n, t)
	if !ok {
		return lockRef{}, false
	}
	if pkg := w.pkgs[dir]; pkg == nil || pkg.structs[typ] == nil {
		return lockRef{}, false
	}
	return lockRef{dir, typ}, true
}

func (w *lockWalker) structOf(ref lockRef) *lockStruct {
	if pkg := w.pkgs[ref.dir]; pkg != nil {
		return pkg.structs[ref.typ]
	}
	return nil
}

// branch clones the walker for a conditionally executed scope.
func (w *lockWalker) branch() *lockWalker {
	c := *w
	c.vars = make(map[string]lockRef, len(w.vars))
	for k, v := range w.vars {
		c.vars[k] = v
	}
	c.local = make(map[string]lockID, len(w.local))
	for k, v := range w.local {
		c.local[k] = v
	}
	return &c
}

func cloneLocks(held []lockID) []lockID {
	return append([]lockID(nil), held...)
}

func holdsLock(held []lockID, id lockID) bool {
	for _, l := range held {
		if l.key == id.key {
			return true
		}
	}
	return false
}

func removeLock(held []lockID, id lockID) []lockID {
	out := make([]lockID, 0, len(held))
	for _, l := range held {
		if l.key != id.key {
			out = append(out, l)
		}
	}
	return out
}

func (w *lockWalker) stmts(list []ast.Stmt, held *[]lockID) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

func (w *lockWalker) stmt(s ast.Stmt, held *[]lockID) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && w.mutexOp(call, held) {
			return
		}
		w.expr(s.X, *held)
	case *ast.DeferStmt:
		// A deferred Unlock pairs with an earlier Lock: the lock stays
		// held to function end, so the statement is a no-op here.
		if _, op, ok := w.lockTarget(s.Call); ok {
			if op == "Unlock" || op == "RUnlock" {
				return
			}
			return // deferred Lock: order is indeterminate, skip
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.funcLit(lit)
			for _, a := range s.Call.Args {
				w.expr(a, *held)
			}
			return
		}
		w.expr(s.Call, *held)
	case *ast.AssignStmt:
		w.assign(s, held)
	case *ast.DeclStmt:
		w.decl(s, *held)
	case *ast.IncDecStmt:
		w.lhsWrite(s.X, *held)
	case *ast.SendStmt:
		w.expr(s.Chan, *held)
		w.expr(s.Value, *held)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Cond, *held)
		b := w.branch()
		h := cloneLocks(*held)
		b.stmts(s.Body.List, &h)
		if s.Else != nil {
			b2 := w.branch()
			h2 := cloneLocks(*held)
			b2.stmt(s.Else, &h2)
		}
	case *ast.ForStmt:
		b := w.branch()
		h := cloneLocks(*held)
		if s.Init != nil {
			b.stmt(s.Init, &h)
		}
		if s.Cond != nil {
			b.expr(s.Cond, h)
		}
		b.stmts(s.Body.List, &h)
		if s.Post != nil {
			b.stmt(s.Post, &h)
		}
	case *ast.RangeStmt:
		w.expr(s.X, *held)
		b := w.branch()
		h := cloneLocks(*held)
		for _, k := range []ast.Expr{s.Key, s.Value} {
			if k == nil {
				continue
			}
			if id, ok := k.(*ast.Ident); ok && s.Tok == token.DEFINE {
				delete(b.vars, id.Name)
				delete(b.local, id.Name)
			} else if s.Tok != token.DEFINE {
				b.lhsWrite(k, h)
			}
		}
		b.stmts(s.Body.List, &h)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.expr(s.Tag, *held)
		}
		w.clauses(s.Body, held)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.clauses(s.Body, held)
	case *ast.SelectStmt:
		w.clauses(s.Body, held)
	case *ast.BlockStmt:
		w.stmts(s.List, held)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, *held)
		}
	case *ast.GoStmt:
		// The spawned goroutine starts with an empty held set.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.funcLit(lit)
		} else if keys := w.callees(s.Call); len(keys) > 0 {
			w.out.calls = append(w.out.calls, lockCall{
				fn: w.n, callees: keys, pos: s.Call.Pos(), lit: true,
			})
		}
		for _, a := range s.Call.Args {
			w.expr(a, *held)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	}
}

func (w *lockWalker) clauses(body *ast.BlockStmt, held *[]lockID) {
	for _, cs := range body.List {
		b := w.branch()
		h := cloneLocks(*held)
		switch cs := cs.(type) {
		case *ast.CaseClause:
			for _, e := range cs.List {
				b.expr(e, h)
			}
			b.stmts(cs.Body, &h)
		case *ast.CommClause:
			if cs.Comm != nil {
				b.stmt(cs.Comm, &h)
			}
			b.stmts(cs.Body, &h)
		}
	}
}

// mutexOp handles a statement-level m.Lock()/m.RLock()/m.Unlock()/
// m.RUnlock() call, mutating the held set. Returns false when the call
// is not a resolvable mutex operation.
func (w *lockWalker) mutexOp(call *ast.CallExpr, held *[]lockID) bool {
	id, op, ok := w.lockTarget(call)
	if !ok {
		return false
	}
	switch op {
	case "Lock", "RLock":
		w.out.acqs = append(w.out.acqs, lockAcq{
			fn: w.n, lock: id, pos: call.Pos(), held: cloneLocks(*held), lit: w.inLit,
		})
		if !holdsLock(*held, id) {
			*held = append(cloneLocks(*held), id)
		}
	case "Unlock", "RUnlock":
		*held = removeLock(*held, id)
	}
	return true
}

// lockTarget resolves a call to (lock identity, method name) when it is
// one of the four mutex operations on a resolvable lock.
func (w *lockWalker) lockTarget(call *ast.CallExpr) (lockID, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockID{}, "", false
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return lockID{}, "", false
	}
	if id, ok := w.resolveLock(sel.X); ok {
		return id, op, true
	}
	return lockID{}, "", false
}

// resolveLock names the lock behind a mutex-operation receiver
// expression: a local mutex var, a package-level mutex var, a tracked
// struct's mutex field, an embedded mutex promoted to the struct, or —
// for compound receivers — the field name resolved within the package.
func (w *lockWalker) resolveLock(x ast.Expr) (lockID, bool) {
	switch x := x.(type) {
	case *ast.Ident:
		if id, ok := w.local[x.Name]; ok {
			return id, true
		}
		pkg := w.pkgs[w.n.pkg.Dir]
		if pkg != nil && pkg.vars[x.Name] {
			return lockID{
				key:   w.n.pkg.Dir + "|" + x.Name,
				label: pkg.name + "." + x.Name,
			}, true
		}
		if ref, ok := w.vars[x.Name]; ok {
			if st := w.structOf(ref); st != nil && st.embedded {
				return lockID{
					key:   ref.dir + "|" + ref.typ + "|(embedded)",
					label: st.pkgName + "." + ref.typ,
				}, true
			}
		}
	case *ast.SelectorExpr:
		field := x.Sel.Name
		if base, ok := x.X.(*ast.Ident); ok {
			if ref, ok := w.vars[base.Name]; ok {
				st := w.structOf(ref)
				if st != nil && st.mutex[field] {
					return lockID{
						key:   ref.dir + "|" + ref.typ + "|" + field,
						label: st.pkgName + "." + ref.typ + "." + field,
					}, true
				}
				return lockID{}, false
			}
		}
		pkg := w.pkgs[w.n.pkg.Dir]
		if pkg == nil {
			return lockID{}, false
		}
		switch owners := pkg.owners[field]; len(owners) {
		case 0:
			return lockID{}, false
		case 1:
			return lockID{
				key:   w.n.pkg.Dir + "|" + owners[0] + "|" + field,
				label: pkg.name + "." + owners[0] + "." + field,
			}, true
		default:
			// Ambiguous: merge into one per-package class of that name.
			return lockID{
				key:   w.n.pkg.Dir + "|?|" + field,
				label: pkg.name + ".?." + field,
			}, true
		}
	}
	return lockID{}, false
}

func (w *lockWalker) assign(s *ast.AssignStmt, held *[]lockID) {
	for _, lhs := range s.Lhs {
		if _, ok := lhs.(*ast.Ident); ok {
			continue // plain rebinding, not a field write
		}
		w.lhsWrite(lhs, *held)
	}
	for _, rhs := range s.Rhs {
		w.expr(rhs, *held)
	}
	if s.Tok == token.DEFINE {
		w.bindDefines(s)
	}
}

// bindDefines tracks struct instances introduced by := — call results
// with a declared mutex-struct result type, type assertions, and
// ident-to-ident copies. Anything else untracks the shadowed name;
// composite-literal locals stay untracked because field writes during
// construction are not mixed access.
func (w *lockWalker) bindDefines(s *ast.AssignStmt) {
	clear := func(e ast.Expr) *ast.Ident {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil
		}
		delete(w.vars, id.Name)
		delete(w.local, id.Name)
		return id
	}
	if len(s.Rhs) == 1 && len(s.Lhs) != len(s.Rhs) {
		if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
			results := w.calleeResults(call)
			for i, lhs := range s.Lhs {
				id := clear(lhs)
				if id != nil && i < len(results) && results[i].typ != "" {
					w.vars[id.Name] = results[i]
				}
			}
			return
		}
		if ta, ok := s.Rhs[0].(*ast.TypeAssertExpr); ok && ta.Type != nil {
			if ref, isRef := w.structRefOf(ta.Type); isRef {
				if id := clear(s.Lhs[0]); id != nil {
					w.vars[id.Name] = ref
				}
				for _, lhs := range s.Lhs[1:] {
					clear(lhs)
				}
				return
			}
		}
		for _, lhs := range s.Lhs {
			clear(lhs)
		}
		return
	}
	for i, lhs := range s.Lhs {
		id := clear(lhs)
		if id == nil || i >= len(s.Rhs) {
			continue
		}
		switch rhs := s.Rhs[i].(type) {
		case *ast.Ident:
			if ref, ok := w.vars[rhs.Name]; ok {
				w.vars[id.Name] = ref
			}
		case *ast.CallExpr:
			if results := w.calleeResults(rhs); len(results) > 0 && results[0].typ != "" {
				w.vars[id.Name] = results[0]
			}
		case *ast.TypeAssertExpr:
			if rhs.Type != nil {
				if ref, ok := w.structRefOf(rhs.Type); ok {
					w.vars[id.Name] = ref
				}
			}
		}
	}
}

// calleeResults maps a resolvable call's declared result types to
// tracked struct references (zero lockRef for untracked results).
func (w *lockWalker) calleeResults(call *ast.CallExpr) []lockRef {
	keys := w.g.calleeKeys(w.n, call)
	if len(keys) == 0 {
		return nil
	}
	cn := w.g.nodes[keys[0]]
	if cn == nil || cn.ftype.Results == nil {
		return nil
	}
	var out []lockRef
	for _, f := range cn.ftype.Results.List {
		var ref lockRef
		if dir, typ, ok := moduleTypeOf(w.p, cn, f.Type); ok {
			if pkg := w.pkgs[dir]; pkg != nil && pkg.structs[typ] != nil {
				ref = lockRef{dir, typ}
			}
		}
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			out = append(out, ref)
		}
	}
	return out
}

func (w *lockWalker) decl(s *ast.DeclStmt, held []lockID) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if vs.Type != nil && syncKind(w.n.file, vs.Type) == syncMutex {
			for _, name := range vs.Names {
				delete(w.vars, name.Name)
				w.local[name.Name] = lockID{
					key:   w.n.key + "|" + name.Name,
					label: w.n.label + "." + name.Name,
				}
			}
			continue
		}
		for _, name := range vs.Names {
			delete(w.vars, name.Name)
			delete(w.local, name.Name)
		}
		if vs.Type != nil {
			if ref, ok := w.structRefOf(vs.Type); ok {
				for _, name := range vs.Names {
					if name.Name != "_" {
						w.vars[name.Name] = ref
					}
				}
			}
		}
		for _, v := range vs.Values {
			w.expr(v, held)
		}
	}
}

func (w *lockWalker) expr(e ast.Expr, held []lockID) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		if _, _, ok := w.lockTarget(e); ok {
			// Mutex op in expression position: not a graph call; the
			// held-set mutation is statement-level only.
			for _, a := range e.Args {
				w.expr(a, held)
			}
			return
		}
		if lit, ok := e.Fun.(*ast.FuncLit); ok {
			w.funcLit(lit)
		} else {
			if keys := w.callees(e); len(keys) > 0 {
				w.out.calls = append(w.out.calls, lockCall{
					fn: w.n, callees: keys, pos: e.Pos(),
					held: cloneLocks(held), lit: w.inLit,
				})
			}
			if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
				w.expr(sel.X, held)
			}
		}
		for _, a := range e.Args {
			w.expr(a, held)
		}
	case *ast.SelectorExpr:
		w.fieldAccess(e, held, false)
	case *ast.FuncLit:
		w.funcLit(e)
	case *ast.UnaryExpr:
		w.expr(e.X, held)
	case *ast.BinaryExpr:
		w.expr(e.X, held)
		w.expr(e.Y, held)
	case *ast.ParenExpr:
		w.expr(e.X, held)
	case *ast.StarExpr:
		w.expr(e.X, held)
	case *ast.IndexExpr:
		w.expr(e.X, held)
		w.expr(e.Index, held)
	case *ast.IndexListExpr:
		w.expr(e.X, held)
	case *ast.SliceExpr:
		w.expr(e.X, held)
		w.expr(e.Low, held)
		w.expr(e.High, held)
		w.expr(e.Max, held)
	case *ast.TypeAssertExpr:
		w.expr(e.X, held)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.expr(el, held)
		}
	case *ast.KeyValueExpr:
		w.expr(e.Value, held)
	}
}

// fieldAccess records a read or write through a tracked struct variable.
func (w *lockWalker) fieldAccess(sel *ast.SelectorExpr, held []lockID, write bool) {
	root, first := selRoot(sel)
	if root == nil {
		w.expr(sel.X, held)
		return
	}
	ref, ok := w.vars[root.Name]
	if !ok {
		return
	}
	st := w.structOf(ref)
	if st == nil || !st.fields[first] {
		return
	}
	w.out.accs = append(w.out.accs, lockAccess{
		typeKey: ref.dir + "|" + ref.typ,
		field:   first,
		fn:      w.n,
		pos:     sel.Pos(),
		write:   write,
		held:    cloneLocks(held),
		lit:     w.inLit,
	})
}

// selRoot unwraps a selector chain x.a.b to (x, "a").
func selRoot(sel *ast.SelectorExpr) (*ast.Ident, string) {
	cur := sel
	for {
		switch x := cur.X.(type) {
		case *ast.Ident:
			return x, cur.Sel.Name
		case *ast.SelectorExpr:
			cur = x
		case *ast.ParenExpr:
			inner, ok := x.X.(*ast.SelectorExpr)
			if !ok {
				return nil, ""
			}
			cur = inner
		default:
			return nil, ""
		}
	}
}

// lhsWrite records the field write behind an assignment target,
// unwrapping indexes, stars, and parens.
func (w *lockWalker) lhsWrite(lhs ast.Expr, held []lockID) {
	for {
		switch l := lhs.(type) {
		case *ast.IndexExpr:
			w.expr(l.Index, held)
			lhs = l.X
			continue
		case *ast.StarExpr:
			lhs = l.X
			continue
		case *ast.ParenExpr:
			lhs = l.X
			continue
		}
		break
	}
	if sel, ok := lhs.(*ast.SelectorExpr); ok {
		w.fieldAccess(sel, held, true)
	}
}

// funcLit analyzes a function literal as a separate scope: captured
// struct bindings apply, but the held set starts empty — goroutines and
// callbacks hold nothing they did not lock themselves.
func (w *lockWalker) funcLit(lit *ast.FuncLit) {
	b := w.branch()
	b.inLit = true
	if lit.Type.Params != nil {
		for _, f := range lit.Type.Params.List {
			b.bindField(f)
		}
	}
	held := []lockID{}
	b.stmts(lit.Body.List, &held)
}

// lockAdjacency builds the caller → callee adjacency from the walker's
// recorded call sites, which carry the field-type refinement of
// lockWalker.callees — the call graph's own name-based edges would
// re-introduce the false bindings the refinement removed.
func lockAdjacency(out *lockOut) map[string][]string {
	adj := make(map[string][]string)
	seen := make(map[string]map[string]bool)
	for _, cs := range out.calls {
		m := seen[cs.fn.key]
		if m == nil {
			m = make(map[string]bool)
			seen[cs.fn.key] = m
		}
		for _, c := range cs.callees {
			if !m[c] {
				m[c] = true
				adj[cs.fn.key] = append(adj[cs.fn.key], c)
			}
		}
	}
	return adj
}

// apiRoots lists the functions callable from outside the module:
// exported functions and methods, main/init, and anything no internal
// caller reaches.
func apiRoots(g *callGraph, adj map[string][]string) []string {
	called := make(map[string]bool)
	for _, cs := range adj {
		for _, c := range cs {
			called[c] = true
		}
	}
	var roots []string
	for _, key := range g.order {
		name := key[strings.LastIndex(key, ".")+1:]
		if ast.IsExported(name) || name == "main" || name == "init" || !called[key] {
			roots = append(roots, key)
		}
	}
	return roots
}

// lockEntryStates computes, per function, the set of locks held at entry
// on every internal call path (the intersection over call sites), so a
// called-with-lock-held helper is analyzed under its real context. API
// roots start empty — external callers hold nothing — and everything
// else starts unknown until a call site lowers it.
func lockEntryStates(g *callGraph, out *lockOut, adj map[string][]string) map[string]map[string]lockID {
	entry := make(map[string]map[string]lockID)
	known := make(map[string]bool)
	for _, key := range apiRoots(g, adj) {
		entry[key] = map[string]lockID{}
		known[key] = true
	}
	for changed := true; changed; {
		changed = false
		for _, cs := range out.calls {
			caller := cs.fn.key
			if !known[caller] {
				continue
			}
			cand := make(map[string]lockID, len(entry[caller])+len(cs.held))
			if !cs.lit {
				for k, v := range entry[caller] {
					cand[k] = v
				}
			}
			for _, l := range cs.held {
				cand[l.key] = l
			}
			for _, callee := range cs.callees {
				if !known[callee] {
					known[callee] = true
					cp := make(map[string]lockID, len(cand))
					for k, v := range cand {
						cp[k] = v
					}
					entry[callee] = cp
					changed = true
					continue
				}
				cur := entry[callee]
				for k := range cur {
					if _, ok := cand[k]; !ok {
						delete(cur, k)
						changed = true
					}
				}
			}
		}
	}
	return entry
}

// lockTransAcquires computes, per function, every lock its call cone
// acquires (including in spawned goroutines — conservative).
func lockTransAcquires(g *callGraph, out *lockOut, adj map[string][]string) map[string]map[string]lockID {
	trans := make(map[string]map[string]lockID)
	grow := func(key string) map[string]lockID {
		m := trans[key]
		if m == nil {
			m = make(map[string]lockID)
			trans[key] = m
		}
		return m
	}
	for _, a := range out.acqs {
		grow(a.fn.key)[a.lock.key] = a.lock
	}
	for changed := true; changed; {
		changed = false
		for _, key := range g.order {
			for _, c := range adj[key] {
				for lk, lv := range trans[c] {
					m := grow(key)
					if _, ok := m[lk]; !ok {
						m[lk] = lv
						changed = true
					}
				}
			}
		}
	}
	return trans
}

// lockEdge is one "to acquired while from held" observation with its
// call-path witness.
type lockEdge struct {
	from, to lockID
	pos      token.Pos // where `to` is acquired
	path     []string  // labels from the holding function to the acquisition
}

// heldEffective merges a site's local held set with the enclosing
// function's entry locks (unless the site is inside a literal), in
// deterministic order.
func heldEffective(entry map[string]map[string]lockID, fnKey string, local []lockID, lit bool) []lockID {
	seen := make(map[string]bool, len(local))
	var hs []lockID
	for _, l := range local {
		if !seen[l.key] {
			seen[l.key] = true
			hs = append(hs, l)
		}
	}
	if !lit {
		var keys []string
		for k := range entry[fnKey] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if !seen[k] {
				seen[k] = true
				hs = append(hs, entry[fnKey][k])
			}
		}
	}
	return hs
}

// lockEdges builds the acquisition-order graph: direct acquisitions
// under a held lock, plus call sites whose callee cone acquires a lock.
// Parallel edges keep the shortest witness; A → A edges are returned
// separately as self-deadlocks.
func lockEdges(p *ModulePass, g *callGraph, out *lockOut, adj map[string][]string,
	entry, trans map[string]map[string]lockID) (map[[2]string]*lockEdge, []*lockEdge) {
	edges := make(map[[2]string]*lockEdge)
	var selfs []*lockEdge
	add := func(from, to lockID, pos token.Pos, path []string) {
		e := &lockEdge{from: from, to: to, pos: pos, path: path}
		if from.key == to.key {
			selfs = append(selfs, e)
			return
		}
		k := [2]string{from.key, to.key}
		old := edges[k]
		if old == nil || len(path) < len(old.path) ||
			(len(path) == len(old.path) && posLess(p, pos, old.pos)) {
			edges[k] = e
		}
	}
	// Per-function first direct acquisition position of each lock, for
	// witness reconstruction.
	direct := make(map[string]map[string]token.Pos)
	for _, a := range out.acqs {
		m := direct[a.fn.key]
		if m == nil {
			m = make(map[string]token.Pos)
			direct[a.fn.key] = m
		}
		if old, ok := m[a.lock.key]; !ok || a.pos < old {
			m[a.lock.key] = a.pos
		}
	}
	for _, a := range out.acqs {
		for _, l := range heldEffective(entry, a.fn.key, a.held, a.lit) {
			add(l, a.lock, a.pos, []string{a.fn.label})
		}
	}
	for _, cs := range out.calls {
		hs := heldEffective(entry, cs.fn.key, cs.held, cs.lit)
		if len(hs) == 0 {
			continue
		}
		for _, callee := range cs.callees {
			var lks []string
			for lk := range trans[callee] {
				lks = append(lks, lk)
			}
			sort.Strings(lks)
			for _, lk := range lks {
				labels, pos, ok := acquirePath(g, adj, direct, callee, lk)
				if !ok {
					continue
				}
				path := append([]string{cs.fn.label}, labels...)
				for _, l := range hs {
					add(l, trans[callee][lk], pos, path)
				}
			}
		}
	}
	return edges, selfs
}

// acquirePath finds the shortest call chain from start to a function
// that directly acquires the lock, returning the chain labels and the
// acquisition position.
func acquirePath(g *callGraph, adj map[string][]string, direct map[string]map[string]token.Pos,
	start, lockKey string) ([]string, token.Pos, bool) {
	parent := map[string]string{start: ""}
	queue := []string{start}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		if pos, ok := direct[k][lockKey]; ok {
			var labels []string
			for c := k; c != ""; c = parent[c] {
				labels = append(labels, g.nodes[c].label)
			}
			for i, j := 0, len(labels)-1; i < j; i, j = i+1, j-1 {
				labels[i], labels[j] = labels[j], labels[i]
			}
			return labels, pos, true
		}
		for _, c := range adj[k] {
			if _, seen := parent[c]; !seen {
				parent[c] = k
				queue = append(queue, c)
			}
		}
	}
	return nil, token.NoPos, false
}

func posLess(p *ModulePass, a, b token.Pos) bool {
	pa, pb := p.Fset.Position(a), p.Fset.Position(b)
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	return pa.Offset < pb.Offset
}

// shortPos renders a position as basename:line for diagnostic text.
func shortPos(p *ModulePass, pos token.Pos) string {
	pp := p.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(pp.Filename), pp.Line)
}

// renderEdge is one edge's witness sentence.
func renderEdge(p *ModulePass, e *lockEdge) string {
	return fmt.Sprintf("%s is acquired while %s is held at %s (call path: %s)",
		e.to.label, e.from.label, shortPos(p, e.pos), strings.Join(e.path, " → "))
}

// reportLockCycles reports every distinct acquisition-order cycle once,
// with the full call-path witness of each constituent edge, and every
// self-edge as a non-reentrant self-deadlock.
func reportLockCycles(p *ModulePass, edges map[[2]string]*lockEdge, selfs []*lockEdge) {
	adj := make(map[string][]string)
	for k := range edges {
		adj[k[0]] = append(adj[k[0]], k[1])
	}
	for from := range adj {
		sort.Strings(adj[from])
	}
	var keys [][2]string
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	seen := make(map[string]bool)
	for _, k := range keys {
		e := edges[k]
		back := backPath(adj, k[1], k[0])
		if back == nil {
			continue
		}
		// The cycle is from -> to -> ... -> from; canonicalize by the
		// sorted set of member locks so each cycle reports once.
		members := append([]string{k[0]}, back...)
		canon := append([]string(nil), members...)
		sort.Strings(canon)
		ck := strings.Join(canon, "→")
		if seen[ck] {
			continue
		}
		seen[ck] = true
		cycleEdges := []*lockEdge{e}
		for i := 0; i+1 < len(members); i++ {
			if i == 0 {
				continue // members[0]→members[1] is e itself
			}
			if n := edges[[2]string{members[i], members[i+1]}]; n != nil {
				cycleEdges = append(cycleEdges, n)
			}
		}
		if n := edges[[2]string{members[len(members)-1], members[0]}]; n != nil {
			cycleEdges = append(cycleEdges, n)
		}
		var labels []string
		for _, m := range members {
			labels = append(labels, lockLabelIn(edges, m))
		}
		labels = append(labels, labels[0])
		var witness []string
		for _, ce := range cycleEdges {
			witness = append(witness, renderEdge(p, ce))
		}
		p.Reportf(e.pos,
			"potential deadlock: lock-order cycle %s — %s; two goroutines interleaving these paths block forever",
			strings.Join(labels, " → "), strings.Join(witness, "; "))
	}
	selfSeen := make(map[token.Pos]bool)
	for _, e := range selfs {
		if selfSeen[e.pos] {
			continue
		}
		selfSeen[e.pos] = true
		p.Reportf(e.pos,
			"lock %s is acquired while already held (call path: %s); Go mutexes are not reentrant, so this self-deadlocks when both acquisitions hit the same instance",
			e.to.label, strings.Join(e.path, " → "))
	}
}

// backPath finds the shortest edge path from -> ... -> to, returning the
// intermediate nodes starting at from (exclusive of the final to).
func backPath(adj map[string][]string, from, to string) []string {
	parent := map[string]string{from: ""}
	queue := []string{from}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		for _, c := range adj[k] {
			if c == to {
				var path []string
				for n := k; n != ""; n = parent[n] {
					path = append(path, n)
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			if _, seen := parent[c]; !seen {
				parent[c] = k
				queue = append(queue, c)
			}
		}
	}
	return nil
}

// lockLabelIn recovers a display label for a lock key from any edge that
// mentions it.
func lockLabelIn(edges map[[2]string]*lockEdge, key string) string {
	for _, e := range edges {
		if e.from.key == key {
			return e.from.label
		}
		if e.to.key == key {
			return e.to.label
		}
	}
	return key
}

// reportMixedAccess flags struct fields written under the owning
// struct's mutex but also accessed bare (or written bare while read
// under the lock). Mutex fields themselves and other sync/atomic-typed
// fields are exempt, as is everything on untracked (locally constructed)
// values.
func reportMixedAccess(p *ModulePass, pkgs map[string]*lockPkg, out *lockOut,
	entry map[string]map[string]lockID) {
	type fieldKey struct{ typeKey, field string }
	type obs struct {
		lockedWrite, lockedRead []lockAccess
		bareWrite, bareRead     []lockAccess
		guard                   lockID
	}
	groups := make(map[fieldKey]*obs)
	for _, a := range out.accs {
		dir := a.typeKey[:strings.Index(a.typeKey, "|")]
		typ := a.typeKey[strings.Index(a.typeKey, "|")+1:]
		lp := pkgs[dir]
		if lp == nil {
			continue
		}
		st := lp.structs[typ]
		if st == nil || st.mutex[a.field] || st.syncOnly[a.field] {
			continue
		}
		var guard lockID
		guarded := false
		for _, l := range heldEffective(entry, a.fn.key, a.held, a.lit) {
			if strings.HasPrefix(l.key, a.typeKey+"|") || l.key == dir+"|?|"+a.field {
				guard = l
				guarded = true
				break
			}
		}
		k := fieldKey{a.typeKey, a.field}
		o := groups[k]
		if o == nil {
			o = &obs{}
			groups[k] = o
		}
		switch {
		case guarded && a.write:
			o.lockedWrite = append(o.lockedWrite, a)
			o.guard = guard
		case guarded:
			o.lockedRead = append(o.lockedRead, a)
			if o.guard.key == "" {
				o.guard = guard
			}
		case a.write:
			o.bareWrite = append(o.bareWrite, a)
		default:
			o.bareRead = append(o.bareRead, a)
		}
	}
	var keys []fieldKey
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].typeKey != keys[j].typeKey {
			return keys[i].typeKey < keys[j].typeKey
		}
		return keys[i].field < keys[j].field
	})
	for _, k := range keys {
		o := groups[k]
		first := func(as []lockAccess) lockAccess {
			best := as[0]
			for _, a := range as[1:] {
				if posLess(p, a.pos, best.pos) {
					best = a
				}
			}
			return best
		}
		typ := k.typeKey[strings.Index(k.typeKey, "|")+1:]
		dir := k.typeKey[:strings.Index(k.typeKey, "|")]
		label := pkgs[dir].name + "." + typ + "." + k.field
		switch {
		case len(o.lockedWrite) > 0 && len(o.bareWrite)+len(o.bareRead) > 0:
			var bare lockAccess
			if len(o.bareWrite) > 0 {
				bare = first(o.bareWrite)
			} else {
				bare = first(o.bareRead)
			}
			p.Reportf(bare.pos,
				"field %s is written under %s (%s) but accessed without it here; hold the lock on every access or make the field immutable after construction",
				label, o.guard.label, shortPos(p, first(o.lockedWrite).pos))
		case len(o.bareWrite) > 0 && len(o.lockedRead) > 0:
			bare := first(o.bareWrite)
			p.Reportf(bare.pos,
				"field %s is read under %s (%s) but written without it here; hold the lock on every access or make the field immutable after construction",
				label, o.guard.label, shortPos(p, first(o.lockedRead).pos))
		}
	}
}

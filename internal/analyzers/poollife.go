package analyzers

// poollife is the pooled-RunState lifetime typestate pass. The serving
// layer recycles plan.RunState values through per-frame-count
// sync.Pools, under a protocol the runtime can only document: Acquire
// marks a state owned by one request, Release returns it to the pool
// (first call wins), Reset re-arms it, and every *Report a Run produces
// aliases the state's internal arenas — it is valid only until the next
// Run or Reset on the same state. Violations don't crash; they silently
// serve one request's numbers to another, which is the worst possible
// failure for a determinism-certifying daemon.
//
// The pass enforces the protocol statically. Per function it tracks
// which locals are RunStates (parameters, receivers, NewRunState-style
// constructor results recognized by declared result type, and
// *plan.RunState type assertions as used by the pool path), which locals
// are reports (bound from a Run call, including through a method value
// run := rs.Run, or derived from another report by selection, indexing,
// slicing, or ranging — call results are fresh values and break the
// chain), and walks statements in order:
//
//   - Acquire on a state already acquired without an intervening
//     Release is a double-acquire;
//   - any use of a state after a non-deferred Release (except the
//     idempotent Release/Released probes) is a use-after-release;
//   - any use of a report after a later Run/Reset on its owning state
//     is a stale-report use, reported with the def-to-use witness;
//   - returning a report (or a value derived from one) while a deferred
//     Release is pending escapes pooled memory to the caller.
//
// The pass is interprocedural through the shared call graph: function
// summaries propagate which parameters a callee transitively Releases or
// invalidates (Runs/Resets), so e.ReleaseState(frames, rs) counts as a
// Release of rs and helper(rs) counts as a run when the helper runs the
// state; constructor-ness flows from declared result types, so
// e.AcquireState(frames) binds a tracked state. Branches are analyzed
// on cloned typestate (effects do not escape the branch); loop bodies
// run twice so a Run in iteration i+1 invalidates reports from
// iteration i.

import (
	"go/ast"
	"go/token"
	"sort"
)

// PoolLife reports violations of the RunState Acquire/Release/Reset/Run
// pooling protocol.
var PoolLife = &ModuleAnalyzer{
	Name: "poollife",
	Doc: "enforce the pooled RunState lifetime protocol: no use-after-Release, no " +
		"double-Acquire, and no report retained across a later Run/Reset on its state",
	Run: runPoolLife,
}

// poolStateTypes names the pooled per-run state types per
// module-relative directory.
var poolStateTypes = map[string]map[string]bool{
	"internal/plan": {"RunState": true},
}

// poolReportTypes names the report types whose values alias a state's
// arenas.
var poolReportTypes = map[string]map[string]bool{
	"internal/plan": {"Report": true},
}

// Protocol method classification by name, applied only to calls whose
// receiver is a tracked state.
func poolEffectOf(name string) (release, invalidate, acquire, probe bool) {
	switch name {
	case "Release":
		return true, false, false, false
	case "Run", "RunConcurrent", "Reset":
		return false, true, false, false
	case "Acquire":
		return false, false, true, false
	case "Released":
		return false, false, false, true
	}
	return false, false, false, false
}

func poolRunName(name string) bool {
	return name == "Run" || name == "RunConcurrent"
}

// poolSummary is one function's interprocedural effect on its state
// parameters (index -1 = receiver).
type poolSummary struct {
	releases    map[int]bool
	invalidates map[int]bool
}

func runPoolLife(p *ModulePass) {
	any := false
	for _, pkg := range p.Packages {
		if len(poolStateTypes[pkg.Dir]) > 0 {
			any = true
		}
	}
	if !any {
		return
	}
	g := newCallGraph(p)
	for _, key := range g.order {
		g.resolveCalls(g.nodes[key])
	}
	sums := poolSummaries(p, g)
	seen := make(map[string]bool)
	for _, key := range g.order {
		n := g.nodes[key]
		w := &poolWalker{
			p: p, g: g, n: n, sums: sums, seen: seen,
			states:  make(map[string]*poolState),
			reports: make(map[string]poolReport),
			methods: make(map[string]poolMethodVal),
		}
		w.run()
	}
}

// poolParams lists a node's state-typed parameter names with their
// indexes: receiver is -1, parameters count flattened from 0.
func poolParams(p *ModulePass, n *funcNode) map[string]int {
	out := make(map[string]int)
	isState := func(t ast.Expr) bool {
		dir, typ, ok := moduleTypeOf(p, n, t)
		return ok && poolStateTypes[dir][typ]
	}
	if n.recv != nil {
		for _, f := range n.recv.List {
			if isState(f.Type) {
				for _, name := range f.Names {
					out[name.Name] = -1
				}
			}
		}
	}
	idx := 0
	if n.ftype != nil && n.ftype.Params != nil {
		for _, f := range n.ftype.Params.List {
			cnt := len(f.Names)
			if cnt == 0 {
				cnt = 1
			}
			if isState(f.Type) {
				for _, name := range f.Names {
					out[name.Name] = idx
					idx++
				}
				if len(f.Names) == 0 {
					idx++
				}
			} else {
				idx += cnt
			}
		}
	}
	return out
}

// poolSummaries computes, to a fixpoint, which state parameters each
// function transitively Releases or invalidates (Runs/Resets).
func poolSummaries(p *ModulePass, g *callGraph) map[string]*poolSummary {
	sums := make(map[string]*poolSummary)
	for _, key := range g.order {
		sums[key] = &poolSummary{
			releases:    make(map[int]bool),
			invalidates: make(map[int]bool),
		}
	}
	// Per node: the direct protocol effects on parameters, plus the call
	// sites whose argument idents are parameters (for propagation).
	type site struct {
		callees []string
		args    map[int]int // callee param index -> our param index
	}
	sites := make(map[string][]site)
	for _, key := range g.order {
		n := g.nodes[key]
		params := poolParams(p, n)
		if len(params) == 0 {
			continue
		}
		sum := sums[key]
		ast.Inspect(n.body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if ok {
				if recv, ok := sel.X.(*ast.Ident); ok {
					if pi, isParam := params[recv.Name]; isParam {
						rel, inv, _, _ := poolEffectOf(sel.Sel.Name)
						if rel {
							sum.releases[pi] = true
						}
						if inv {
							sum.invalidates[pi] = true
						}
						if rel || inv {
							return true
						}
					}
				}
			}
			callees := g.calleeKeys(n, call)
			if len(callees) == 0 {
				return true
			}
			st := site{callees: callees, args: make(map[int]int)}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if recv, ok := sel.X.(*ast.Ident); ok {
					if pi, isParam := params[recv.Name]; isParam {
						st.args[-1] = pi
					}
				}
			}
			for i, a := range call.Args {
				if id, ok := a.(*ast.Ident); ok {
					if pi, isParam := params[id.Name]; isParam {
						st.args[i] = pi
					}
				}
			}
			if len(st.args) > 0 {
				sites[key] = append(sites[key], st)
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, key := range g.order {
			sum := sums[key]
			for _, st := range sites[key] {
				for _, callee := range st.callees {
					cs := sums[callee]
					if cs == nil {
						continue
					}
					for ci, pi := range st.args {
						if cs.releases[ci] && !sum.releases[pi] {
							sum.releases[pi] = true
							changed = true
						}
						if cs.invalidates[ci] && !sum.invalidates[pi] {
							sum.invalidates[pi] = true
							changed = true
						}
					}
				}
			}
		}
	}
	return sums
}

// poolState is one tracked RunState variable's typestate.
type poolState struct {
	acquired bool
	acqPos   token.Pos
	released bool
	relPos   token.Pos
	deferRel bool
	gen      int // bumped on every Run/Reset
	genPos   token.Pos
}

// poolReport is one tracked report variable: the owning state and the
// state generation at definition.
type poolReport struct {
	owner  string
	defPos token.Pos
	gen    int
}

// poolMethodVal is a bound method value run := rs.Run.
type poolMethodVal struct {
	owner string
	name  string
}

// poolWalker walks one function body in statement order, tracking the
// typestate of every RunState and report variable.
type poolWalker struct {
	p       *ModulePass
	g       *callGraph
	n       *funcNode
	sums    map[string]*poolSummary
	seen    map[string]bool // finding dedupe (position|kind) across repasses
	states  map[string]*poolState
	reports map[string]poolReport
	methods map[string]poolMethodVal
}

func (w *poolWalker) run() {
	for name := range poolParams(w.p, w.n) {
		w.states[name] = &poolState{}
	}
	w.stmts(w.n.body.List)
}

// branch clones the walker for a conditionally executed scope: effects
// inside do not escape.
func (w *poolWalker) branch() *poolWalker {
	c := *w
	c.states = make(map[string]*poolState, len(w.states))
	for k, v := range w.states {
		cp := *v
		c.states[k] = &cp
	}
	c.reports = make(map[string]poolReport, len(w.reports))
	for k, v := range w.reports {
		c.reports[k] = v
	}
	c.methods = make(map[string]poolMethodVal, len(w.methods))
	for k, v := range w.methods {
		c.methods[k] = v
	}
	return &c
}

func (w *poolWalker) report(pos token.Pos, kind, format string, args ...any) {
	key := w.p.Fset.Position(pos).String() + "|" + kind
	if w.seen[key] {
		return
	}
	w.seen[key] = true
	w.p.Reportf(pos, format, args...)
}

func (w *poolWalker) untrack(e ast.Expr) *ast.Ident {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	delete(w.states, id.Name)
	delete(w.reports, id.Name)
	delete(w.methods, id.Name)
	return id
}

func (w *poolWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *poolWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			w.call(call, false)
			return
		}
		w.scan(s.X)
	case *ast.AssignStmt:
		w.assign(s)
	case *ast.DeferStmt:
		w.call(s.Call, true)
	case *ast.ReturnStmt:
		w.ret(s)
	case *ast.DeclStmt:
		w.decl(s)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.scan(s.Cond)
		b := w.branch()
		b.stmts(s.Body.List)
		if s.Else != nil {
			b2 := w.branch()
			b2.stmt(s.Else)
		}
	case *ast.ForStmt:
		// Loop bodies run twice so a Run in iteration i+1 invalidates
		// reports defined in iteration i.
		if s.Init != nil {
			w.stmt(s.Init)
		}
		for pass := 0; pass < 2; pass++ {
			if s.Cond != nil {
				w.scan(s.Cond)
			}
			w.stmts(s.Body.List)
			if s.Post != nil {
				w.stmt(s.Post)
			}
		}
	case *ast.RangeStmt:
		w.scan(s.X)
		if s.Tok == token.DEFINE {
			rep, derived := w.bareReportRef(s.X)
			for _, k := range []ast.Expr{s.Key, s.Value} {
				if k == nil {
					continue
				}
				if id := w.untrack(k); id != nil && derived {
					w.reports[id.Name] = rep
				}
			}
		}
		for pass := 0; pass < 2; pass++ {
			w.stmts(s.Body.List)
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.scan(s.Tag)
		}
		w.clauses(s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.clauses(s.Body)
	case *ast.SelectStmt:
		w.clauses(s.Body)
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.GoStmt:
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			b := w.branch()
			b.stmts(lit.Body.List)
			for _, a := range s.Call.Args {
				w.scan(a)
			}
			return
		}
		w.call(s.Call, false)
	case *ast.IncDecStmt:
		w.scan(s.X)
	case *ast.SendStmt:
		w.scan(s.Chan)
		w.scan(s.Value)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	}
}

func (w *poolWalker) clauses(body *ast.BlockStmt) {
	for _, cs := range body.List {
		b := w.branch()
		switch cs := cs.(type) {
		case *ast.CaseClause:
			for _, e := range cs.List {
				b.scan(e)
			}
			b.stmts(cs.Body)
		case *ast.CommClause:
			if cs.Comm != nil {
				b.stmt(cs.Comm)
			}
			b.stmts(cs.Body)
		}
	}
}

func (w *poolWalker) decl(s *ast.DeclStmt) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		isState := false
		if vs.Type != nil {
			dir, typ, resolved := moduleTypeOf(w.p, w.n, vs.Type)
			isState = resolved && poolStateTypes[dir][typ]
		}
		for _, name := range vs.Names {
			if id := w.untrack(name); id != nil && isState {
				w.states[id.Name] = &poolState{}
			}
		}
		for _, v := range vs.Values {
			w.scan(v)
		}
	}
}

// scan traverses an expression, checking uses and applying call effects
// in evaluation order.
func (w *poolWalker) scan(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident:
		w.use(e)
	case *ast.CallExpr:
		w.call(e, false)
	case *ast.SelectorExpr:
		w.scan(e.X)
	case *ast.FuncLit:
		b := w.branch()
		b.stmts(e.Body.List)
	case *ast.UnaryExpr:
		w.scan(e.X)
	case *ast.BinaryExpr:
		w.scan(e.X)
		w.scan(e.Y)
	case *ast.ParenExpr:
		w.scan(e.X)
	case *ast.StarExpr:
		w.scan(e.X)
	case *ast.IndexExpr:
		w.scan(e.X)
		w.scan(e.Index)
	case *ast.IndexListExpr:
		w.scan(e.X)
	case *ast.SliceExpr:
		w.scan(e.X)
		w.scan(e.Low)
		w.scan(e.High)
		w.scan(e.Max)
	case *ast.TypeAssertExpr:
		w.scan(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.scan(el)
		}
	case *ast.KeyValueExpr:
		w.scan(e.Value)
	}
}

// use checks one identifier reference against the typestate.
func (w *poolWalker) use(id *ast.Ident) {
	if st := w.states[id.Name]; st != nil && st.released {
		w.report(id.Pos(), "uar",
			"RunState %s used after Release (%s); a released state may already be serving another request",
			id.Name, shortPos(w.p, st.relPos))
	}
	if rep, ok := w.reports[id.Name]; ok {
		if st := w.states[rep.owner]; st != nil && st.gen > rep.gen {
			w.report(id.Pos(), "stale",
				"report %s (from the run at %s on %s) used after a later Run/Reset on that state (%s); reports alias the state's arenas and are only valid until its next run",
				id.Name, shortPos(w.p, rep.defPos), rep.owner, shortPos(w.p, st.genPos))
		}
	}
}

// call applies one call's protocol effects and returns the name of the
// state a Run-like call executed on (for report binding), or "".
func (w *poolWalker) call(e *ast.CallExpr, deferred bool) string {
	if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
		if recv, ok := sel.X.(*ast.Ident); ok {
			if st := w.states[recv.Name]; st != nil {
				rel, inv, acq, probe := poolEffectOf(sel.Sel.Name)
				if rel || inv || acq || probe {
					for _, a := range e.Args {
						w.scan(a)
					}
					return w.protocol(recv.Name, st, sel.Sel.Name, e.Pos(), deferred)
				}
			}
		}
	}
	if fun, ok := e.Fun.(*ast.Ident); ok {
		if mv, ok := w.methods[fun.Name]; ok {
			if st := w.states[mv.owner]; st != nil {
				for _, a := range e.Args {
					w.scan(a)
				}
				return w.protocol(mv.owner, st, mv.name, e.Pos(), deferred)
			}
		}
	}
	if lit, ok := e.Fun.(*ast.FuncLit); ok {
		b := w.branch()
		b.stmts(lit.Body.List)
		for _, a := range e.Args {
			w.scan(a)
		}
		return ""
	}
	put := false
	if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
		w.scan(sel.X)
		put = sel.Sel.Name == "Put"
	}
	for _, a := range e.Args {
		// Handing a released state back to a pool (x.Put(rs)) is the
		// designed completion of Release, not a use of the state.
		if put {
			if id, ok := a.(*ast.Ident); ok && w.states[id.Name] != nil {
				continue
			}
		}
		w.scan(a)
	}
	return w.applySummaries(e, deferred)
}

// protocol applies one direct protocol-method effect.
func (w *poolWalker) protocol(name string, st *poolState, method string, pos token.Pos, deferred bool) string {
	rel, inv, acq, _ := poolEffectOf(method)
	switch {
	case acq:
		if st.released {
			w.report(pos, "uar",
				"RunState %s re-Acquired after Release (%s); the pool may already have handed it to another request",
				name, shortPos(w.p, st.relPos))
			st.released = false
		} else if st.acquired {
			w.report(pos, "acq",
				"RunState %s Acquired again without an intervening Release (first Acquire at %s); one pooled state cannot serve two requests",
				name, shortPos(w.p, st.acqPos))
		}
		st.acquired = true
		st.acqPos = pos
	case rel:
		if deferred {
			st.deferRel = true
		} else if !st.released {
			st.released = true
			st.relPos = pos
		}
	case inv:
		if st.released {
			w.report(pos, "uar",
				"RunState %s run after Release (%s); a released state may already be serving another request",
				name, shortPos(w.p, st.relPos))
		}
		st.gen++
		st.genPos = pos
		return name
	}
	return ""
}

// applySummaries applies a resolvable callee's interprocedural effects
// to state-typed arguments and the receiver.
func (w *poolWalker) applySummaries(e *ast.CallExpr, deferred bool) string {
	callees := w.g.calleeKeys(w.n, e)
	runOwner := ""
	argIdent := func(pi int) *ast.Ident {
		if pi == -1 {
			if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
				id, _ := sel.X.(*ast.Ident)
				return id
			}
			return nil
		}
		if pi >= 0 && pi < len(e.Args) {
			id, _ := e.Args[pi].(*ast.Ident)
			return id
		}
		return nil
	}
	for _, callee := range callees {
		sum := w.sums[callee]
		if sum == nil {
			continue
		}
		for _, pi := range sortedIndexes(sum.releases) {
			id := argIdent(pi)
			if id == nil {
				continue
			}
			st := w.states[id.Name]
			if st == nil {
				continue
			}
			if deferred {
				st.deferRel = true
			} else if !st.released {
				st.released = true
				st.relPos = e.Pos()
			}
		}
		for _, pi := range sortedIndexes(sum.invalidates) {
			id := argIdent(pi)
			if id == nil {
				continue
			}
			st := w.states[id.Name]
			if st == nil {
				continue
			}
			st.gen++
			st.genPos = e.Pos()
			if runOwner == "" && w.calleeReturnsReport(callee) {
				runOwner = id.Name
			}
		}
	}
	return runOwner
}

func sortedIndexes(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for i := range m {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// calleeReturnsReport reports whether a node's first declared result is
// a report type.
func (w *poolWalker) calleeReturnsReport(key string) bool {
	cn := w.g.nodes[key]
	if cn == nil || cn.ftype.Results == nil || len(cn.ftype.Results.List) == 0 {
		return false
	}
	dir, typ, ok := moduleTypeOf(w.p, cn, cn.ftype.Results.List[0].Type)
	return ok && poolReportTypes[dir][typ]
}

// calleeStateResults flags, per flattened declared result position,
// whether the first resolvable callee returns a tracked state there.
func (w *poolWalker) calleeStateResults(e *ast.CallExpr) []bool {
	keys := w.g.calleeKeys(w.n, e)
	if len(keys) == 0 {
		return nil
	}
	cn := w.g.nodes[keys[0]]
	if cn == nil || cn.ftype.Results == nil {
		return nil
	}
	var out []bool
	for _, f := range cn.ftype.Results.List {
		dir, typ, ok := moduleTypeOf(w.p, cn, f.Type)
		is := ok && poolStateTypes[dir][typ]
		cnt := len(f.Names)
		if cnt == 0 {
			cnt = 1
		}
		for i := 0; i < cnt; i++ {
			out = append(out, is)
		}
	}
	return out
}

// bareReportRef finds a report value inside an expression without
// crossing a call boundary: selection, indexing, slicing, dereference,
// and composite building derive; call results are fresh values.
func (w *poolWalker) bareReportRef(e ast.Expr) (poolReport, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		rep, ok := w.reports[e.Name]
		return rep, ok
	case *ast.SelectorExpr:
		return w.bareReportRef(e.X)
	case *ast.IndexExpr:
		return w.bareReportRef(e.X)
	case *ast.SliceExpr:
		return w.bareReportRef(e.X)
	case *ast.StarExpr:
		return w.bareReportRef(e.X)
	case *ast.ParenExpr:
		return w.bareReportRef(e.X)
	case *ast.UnaryExpr:
		return w.bareReportRef(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if rep, ok := w.bareReportRef(el); ok {
				return rep, true
			}
		}
	case *ast.KeyValueExpr:
		return w.bareReportRef(e.Value)
	case *ast.BinaryExpr:
		if rep, ok := w.bareReportRef(e.X); ok {
			return rep, true
		}
		return w.bareReportRef(e.Y)
	}
	return poolReport{}, false
}

// assertedState reports whether a type assertion names a tracked state.
func (w *poolWalker) assertedState(ta *ast.TypeAssertExpr) bool {
	if ta.Type == nil {
		return false
	}
	dir, typ, ok := moduleTypeOf(w.p, w.n, ta.Type)
	return ok && poolStateTypes[dir][typ]
}

func (w *poolWalker) assign(s *ast.AssignStmt) {
	for _, lhs := range s.Lhs {
		if _, ok := lhs.(*ast.Ident); ok {
			continue
		}
		w.scan(lhs)
	}
	runOwner := ""
	var singleCall *ast.CallExpr
	if len(s.Rhs) == 1 {
		if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
			singleCall = call
			runOwner = w.call(call, false)
		} else {
			w.scan(s.Rhs[0])
		}
	} else {
		for _, r := range s.Rhs {
			w.scan(r)
		}
	}

	switch {
	case runOwner != "":
		if id := w.untrack(s.Lhs[0]); id != nil {
			w.reports[id.Name] = poolReport{
				owner:  runOwner,
				defPos: s.Rhs[0].Pos(),
				gen:    w.states[runOwner].gen,
			}
		}
		for _, lhs := range s.Lhs[1:] {
			w.untrack(lhs)
		}
	case singleCall != nil:
		results := w.calleeStateResults(singleCall)
		for i, lhs := range s.Lhs {
			id := w.untrack(lhs)
			if id != nil && i < len(results) && results[i] {
				w.states[id.Name] = &poolState{}
			}
		}
	case len(s.Rhs) == 1 && len(s.Lhs) >= 1 && isAssert(s.Rhs[0]):
		ta := s.Rhs[0].(*ast.TypeAssertExpr)
		if id := w.untrack(s.Lhs[0]); id != nil && w.assertedState(ta) {
			w.states[id.Name] = &poolState{}
		}
		for _, lhs := range s.Lhs[1:] {
			w.untrack(lhs)
		}
	case len(s.Lhs) == len(s.Rhs):
		for i, lhs := range s.Lhs {
			rhs := s.Rhs[i]
			id, isIdent := lhs.(*ast.Ident)
			if isIdent && id.Name == "_" {
				continue
			}
			if !isIdent {
				// resp.Field = <report-ref>: the built value now aliases
				// the report; tag the root so returning it is checked.
				if rep, ok := w.bareReportRef(rhs); ok {
					if base, _ := lhsRoot(lhs); base != nil {
						if _, tracked := w.states[base.Name]; !tracked {
							w.reports[base.Name] = rep
						}
					}
				}
				continue
			}
			switch r := rhs.(type) {
			case *ast.Ident:
				if st, ok := w.states[r.Name]; ok {
					w.untrack(id)
					w.states[id.Name] = st // alias shares typestate
					continue
				}
			case *ast.SelectorExpr:
				if recv, ok := r.X.(*ast.Ident); ok && poolRunName(r.Sel.Name) {
					if _, tracked := w.states[recv.Name]; tracked {
						w.untrack(id)
						w.methods[id.Name] = poolMethodVal{owner: recv.Name, name: r.Sel.Name}
						continue
					}
				}
			}
			if rep, ok := w.bareReportRef(rhs); ok {
				w.untrack(id)
				w.reports[id.Name] = rep
				continue
			}
			w.untrack(id)
		}
	default:
		for _, lhs := range s.Lhs {
			w.untrack(lhs)
		}
	}
}

func isAssert(e ast.Expr) bool {
	_, ok := e.(*ast.TypeAssertExpr)
	return ok
}

func (w *poolWalker) ret(s *ast.ReturnStmt) {
	for _, e := range s.Results {
		if id, ok := e.(*ast.Ident); ok {
			if st := w.states[id.Name]; st != nil && st.deferRel {
				w.report(e.Pos(), "escape",
					"RunState %s is returned while a deferred Release hands it back to the pool; the caller would race the next request for it",
					id.Name)
			}
		}
		if rep, ok := w.bareReportRef(e); ok {
			if st := w.states[rep.owner]; st != nil && (st.deferRel || st.released) {
				w.report(e.Pos(), "escape",
					"report from the run at %s escapes via return while its RunState %s goes back to the pool; deep-copy the report before Release",
					shortPos(w.p, rep.defPos), rep.owner)
			}
		}
		w.scan(e)
	}
}

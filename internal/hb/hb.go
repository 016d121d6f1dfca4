// Package hb verifies the happens-before determinism of a compiled
// execution plan: Proposition 2.1 of the DATE 2015 FPPN paper, made
// checkable per plan instead of assumed per model.
//
// The runtime shape being verified is plan.RunConcurrent: one goroutine
// per processor replays its static chain frame by frame against a virtual
// clock, and the only inter-processor synchronization is (a) the
// synchronize-invocation wait (a job waits for its ready time), (b) the
// synchronize-precedence wait (a job waits for its task-graph
// predecessors in the same frame) and (c) the per-frame availability wait
// (a processor enters frame f no earlier than f·H). Two machine actions
// whose virtual times are strictly separated are ordered in every
// execution; two actions that can occur at incomparable points race for
// the shared channel state and may produce different observable results
// between runs.
//
// Verify therefore builds an explicit happens-before graph over a window
// of frames and checks that every pair of conflicting accesses to shared
// state is ordered by it:
//
//   - nodes: every job instance (frame, job) of the window, one per
//     potential machine action;
//   - program-order edges: consecutive jobs of the plan's processor
//     chains, and each chain's frame-to-frame continuation (one goroutine
//     runs its frames sequentially);
//   - precedence edges: the task graph's edges within each frame (the
//     paper's step-3 FP-derived precedence, which RunConcurrent enforces
//     with completion waits);
//   - time-separation edges: an edge (f, i) → (g, j) whenever
//     f·H + D_i ≤ lower-bound-of-ready(g, j), because job i's action
//     happens strictly before its absolute deadline (positive execution
//     time, no deadline miss) while job j's action happens no earlier
//     than its ready wait. The ready lower bound is g·H + A_j for
//     ordinary jobs and g·H for server jobs (a sporadic event may invoke
//     a server job before its nominal arrival, but never before its
//     processor entered the frame). These bounds are int64 ticks of the
//     task graph's timescale (TaskGraph.Ticks), as the plan replays them.
//
// Conflicting accesses are enumerated structurally: every pair of
// instances of the same process conflicts (invocation counter, behavior
// state, external output slices), and every writer instance × reader
// instance pair of an internal channel conflicts (FIFO ring slots,
// blackboard cells).
//
// Soundness of the time edges rests on the assumptions of Proposition
// 4.1: the schedule is validated, actual execution times are positive and
// bounded by the WCET, and sporadic events respect the declared
// inter-arrival bound — under these, no job misses its absolute deadline,
// so its machine action happens strictly before f·H + D_i. The window of
// 1 + ceil(maxD/H) frames suffices: every edge class is invariant under
// shifting both endpoints by one frame, so an arbitrary pair (f, i),
// (f+Δ, j) is ordered iff (0, i), (Δ, j) is, and for Δ ≥ ceil(maxD/H)
// the time edge D_i ≤ maxD ≤ Δ·H ≤ Δ·H + A_j always orders the pair.
// The differential suite in internal/integration backs the argument
// empirically: every plan Verify certifies replays byte-identically
// between Plan.Run and Plan.RunConcurrent.
package hb

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/plan"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// Time aliases the exact rational time type.
type Time = rational.Rat

// Access identifies one side of a conflicting access pair: a job instance
// and what it does to the shared resource.
type Access struct {
	// Frame is the frame offset within the verification window.
	Frame int
	// Job is the frame-local job index.
	Job int
	// Name is the job's display name "process[k]".
	Name string
	// Proc is the processor executing the instance.
	Proc int
	// Op is "writes", "reads" or "state" (same-process shared state).
	Op string
}

// String renders "process[k]@frame f on proc p (writes)".
func (a Access) String() string {
	return fmt.Sprintf("%s@frame %d on proc %d (%s)", a.Name, a.Frame, a.Proc, a.Op)
}

// Witness is a concrete unordered conflicting access pair: no
// happens-before path orders A against B, so the accesses to Resource can
// interleave either way between runs.
type Witness struct {
	// Resource names the shared state: "channel NAME" or "process NAME".
	Resource string
	A, B     Access
}

// String renders the witness on one line.
func (w Witness) String() string {
	return fmt.Sprintf("%s: %v unordered against %v", w.Resource, w.A, w.B)
}

// Verdict is the structured result of a determinism verification.
type Verdict struct {
	// RaceFree reports that every conflicting access pair is ordered by
	// the happens-before relation of the plan.
	RaceFree bool
	// Witness is the first unordered conflicting pair in deterministic
	// enumeration order (smallest frame delta first), nil when RaceFree.
	Witness *Witness
	// Unordered counts all unordered conflicting pairs found.
	Unordered int
	// Frames is the verification window size in frames.
	Frames int
	// Nodes and Edges size the happens-before graph that was built.
	Nodes, Edges int
	// Pairs counts the conflicting access pairs checked.
	Pairs int
}

// String renders the headline verdict.
func (v Verdict) String() string {
	if v.RaceFree {
		return fmt.Sprintf("race-free: %d conflicting pairs ordered over a %d-frame window (%d nodes, %d edges)",
			v.Pairs, v.Frames, v.Nodes, v.Edges)
	}
	return fmt.Sprintf("NOT race-free: %d of %d conflicting pairs unordered; first witness: %v",
		v.Unordered, v.Pairs, *v.Witness)
}

// Verify builds the happens-before partial order of the compiled plan and
// checks every conflicting access pair against it. It never executes the
// plan; the verdict depends only on the schedule, the task graph and the
// network's channel structure.
func Verify(p *plan.Plan) Verdict {
	g := buildGraph(p)
	g.close()
	return g.checkConflicts()
}

// graph is the happens-before graph over the verification window.
type graph struct {
	tg *taskgraph.TaskGraph
	s  *sched.Schedule // for the witness's processors
	n  int             // jobs per frame
	w  int             // window size in frames

	// nodes counts the w*n job nodes and the gate nodes. The successors
	// of node v are succ[off[v]:off[v+1]].
	nodes int
	off   []int
	succ  []int32

	// desc holds, for every JOB node v, the bitset of job nodes reachable
	// from v (excluding v itself unless v lies on a cycle, which validated
	// plans never do) as words uint64s at desc[v*words:]. Gate nodes have
	// no retained rows: conflict queries only ever name job nodes, so gate
	// reachability is transient DP state.
	words int
	desc  []uint64
}

// node returns the graph node of job i in window frame f.
func (g *graph) node(f, i int) int { return f*g.n + i }

// buildGraph assembles the nodes and the three edge classes on the task
// graph's integer timescale.
func buildGraph(p *plan.Plan) *graph {
	tg := p.TaskGraph()
	jt, h := p.Ticks()
	n := len(tg.Jobs)

	// Window: 1 + ceil(maxD / H) frames (at least 2).
	maxD := int64(0)
	for _, d := range jt.Deadline {
		maxD = max(maxD, d)
	}
	w := int(max(1, (maxD+h-1)/h)) + 1

	g := &graph{tg: tg, s: p.S, n: n, w: w}

	// Absolute ready lower bounds and deadlines per (frame, job) node
	// drive the gate chain: one gate per distinct value, in time order.
	jobs := w * n
	ready := make([]int64, jobs)
	deadline := make([]int64, jobs)
	for v := range ready {
		base, i := int64(v/n)*h, v%n
		ready[v] = base + jt.Arrival[i]
		if tg.Jobs[i].Server {
			ready[v] = base
		}
		deadline[v] = base + jt.Deadline[i]
	}
	gates := append(slices.Clone(ready), deadline...)
	slices.Sort(gates)
	gates = slices.Compact(gates)
	g.nodes = jobs + len(gates)
	// From here on, ready and deadline hold each job node's gate node.
	for v := range ready {
		k, _ := slices.BinarySearch(gates, ready[v])
		ready[v] = int64(jobs + k)
		k, _ = slices.BinarySearch(gates, deadline[v])
		deadline[v] = int64(jobs + k)
	}

	chains := p.ProcessorOrder()
	edges := tg.Edges()
	emit := func(add func(a, b int)) {
		// Program order: each processor goroutine runs its static chain
		// once per frame, frames in sequence.
		for _, chain := range chains {
			for f := 0; f < w; f++ {
				for k := 1; k < len(chain); k++ {
					add(g.node(f, chain[k-1]), g.node(f, chain[k]))
				}
				if f+1 < w && len(chain) > 0 {
					add(g.node(f, chain[len(chain)-1]), g.node(f+1, chain[0]))
				}
			}
		}
		// Precedence: the task graph's edges, per frame (RunConcurrent
		// waits on same-frame predecessor completion).
		for _, e := range edges {
			for f := 0; f < w; f++ {
				add(g.node(f, e[0]), g.node(f, e[1]))
			}
		}
		// Time separation, via the gate chain: job → gate(deadline) and
		// gate(ready) → job, so a ⇝ b exactly when deadline(a) ≤ ready(b).
		for k := jobs + 1; k < g.nodes; k++ {
			add(k-1, k)
		}
		for v := 0; v < jobs; v++ {
			add(v, int(deadline[v]))
			add(int(ready[v]), v)
		}
	}
	// Compressed adjacency: count the out-degrees, then fill.
	g.off = make([]int, g.nodes+1)
	emit(func(a, _ int) { g.off[a+1]++ })
	for v := 0; v < g.nodes; v++ {
		g.off[v+1] += g.off[v]
	}
	g.succ = make([]int32, g.off[g.nodes])
	next := slices.Clone(g.off[:g.nodes])
	emit(func(a, b int) {
		g.succ[next[a]] = int32(b)
		next[a]++
	})
	return g
}

// successors returns the successors of node v.
func (g *graph) successors(v int) []int32 { return g.succ[g.off[v]:g.off[v+1]] }

// close computes per-job-node descendant bitsets, restricted to job-node
// columns. The graph of a validated plan is a DAG (all edge classes point
// forward in frame and time), so a single reverse-topological sweep
// suffices. Gate nodes exist only to factor the quadratic time-separation
// relation into O(nodes) edges; conflict queries never name them, so a
// gate's row is drawn from a small pool during the sweep and released the
// moment its last predecessor has folded it in — only the J×J job matrix
// (J = w·n) is retained, instead of the full (J+gates)² closure.
func (g *graph) close() {
	jobs := g.w * g.n
	words := (jobs + 63) / 64
	g.words = words
	g.desc = make([]uint64, jobs*words)

	order := g.topoOrder()
	if len(order) < g.nodes {
		g.closeCyclic()
		return
	}

	// pending[s] counts unprocessed predecessors: once it hits zero no
	// later sweep step reads s's row, so a gate row can be recycled.
	pending := make([]int32, g.nodes)
	for _, s := range g.succ {
		pending[s]++
	}
	gateRow := make([][]uint64, g.nodes-jobs)
	var pool [][]uint64
	// Reverse topological order: successors first.
	for k := len(order) - 1; k >= 0; k-- {
		v := int(order[k])
		var dv []uint64
		if v < jobs {
			dv = g.desc[v*words : (v+1)*words]
		} else {
			if n := len(pool) - 1; n >= 0 {
				dv, pool = pool[n], pool[:n]
				clear(dv)
			} else {
				dv = make([]uint64, words)
			}
			gateRow[v-jobs] = dv
		}
		for _, s32 := range g.successors(v) {
			s := int(s32)
			var ds []uint64
			if s < jobs {
				dv[s/64] |= 1 << (s % 64)
				ds = g.desc[s*words : (s+1)*words]
			} else {
				ds = gateRow[s-jobs]
			}
			for w := range dv {
				dv[w] |= ds[w]
			}
			if pending[s]--; pending[s] == 0 && s >= jobs {
				pool = append(pool, gateRow[s-jobs])
				gateRow[s-jobs] = nil
			}
		}
	}
}

// closeCyclic is the defensive slow path for graphs with a cycle
// (impossible for validated plans, reachable from hand-built inputs): one
// graph search per job node.
func (g *graph) closeCyclic() {
	jobs := g.w * g.n
	seen := make([]bool, g.nodes)
	var stack []int32
	for v := 0; v < jobs; v++ {
		clear(seen)
		row := g.desc[v*g.words : (v+1)*g.words]
		for stack = append(stack[:0], g.successors(v)...); len(stack) > 0; {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[u] {
				continue
			}
			seen[u] = true
			if int(u) < jobs {
				row[u/64] |= 1 << (u % 64)
			}
			stack = append(stack, g.successors(int(u))...)
		}
	}
}

// topoOrder returns a topological order via Kahn's algorithm; it omits
// the nodes on or behind a cycle (impossible for validated plans).
func (g *graph) topoOrder() []int32 {
	indeg := make([]int32, g.nodes)
	for _, s := range g.succ {
		indeg[s]++
	}
	order := make([]int32, 0, g.nodes)
	for v := 0; v < g.nodes; v++ {
		if indeg[v] == 0 {
			order = append(order, int32(v))
		}
	}
	// order doubles as the FIFO queue: entries before head are emitted.
	for head := 0; head < len(order); head++ {
		for _, s := range g.successors(int(order[head])) {
			if indeg[s]--; indeg[s] == 0 {
				order = append(order, s)
			}
		}
	}
	return order
}

// ordered reports whether job a of window frame 0 and job b of window
// frame delta are happens-before related (in either direction).
func (g *graph) ordered(a, delta, b int) bool {
	nb := g.node(delta, b)
	return g.desc[a*g.words+nb/64]&(1<<(nb%64)) != 0 ||
		g.desc[nb*g.words+a/64]&(1<<(a%64)) != 0
}

// conflictSite is one shared resource and the frame-job indices that
// access it: a process's own state (self; every instance pair of as = bs)
// or an internal channel (writer instances as × reader instances bs).
type conflictSite struct {
	name   string
	as, bs []int
	self   bool
}

// checkConflicts enumerates the conflicting access pairs and queries the
// closed graph. Pairs at each frame distance are counted a bitset word at
// a time; the witness is the first unordered pair in the enumeration order
// smallest frame delta first, then sites (processes in ProcessNames order,
// then channels), then instance pairs, so it is minimal in window distance.
// Only the witness renders names.
func (g *graph) checkConflicts() Verdict {
	tg := g.tg
	var sites []conflictSite
	for pid, name := range tg.Net.ProcessNames() {
		js := tg.JobsOf(pid)
		sites = append(sites, conflictSite{name: name, as: js, bs: js, self: true})
	}
	for _, c := range tg.Net.Channels() {
		if c.Writer != c.Reader { // else ordered by the process's own job order
			sites = append(sites, conflictSite{name: c.Name,
				as: tg.JobsOf(tg.Net.Pid(c.Writer)), bs: tg.JobsOf(tg.Net.Pid(c.Reader))})
		}
	}

	v := Verdict{RaceFree: true, Frames: g.w, Nodes: g.nodes, Edges: len(g.succ)}
	mask := make([]uint64, g.words)
	var first *conflictSite
	firstDelta := 0
	for delta := 0; delta < g.w; delta++ {
		for i := range sites {
			s := &sites[i]
			n, pairs := g.unordered(mask, s.as, s.bs, delta), len(s.as)*len(s.bs)
			switch {
			case s.self && delta == 0: // {a, b} and {b, a} are one pair
				n, pairs = n/2, len(s.as)*(len(s.as)-1)/2
			case delta > 0 && !s.self: // readers of frame 0 against writers of frame delta
				n, pairs = n+g.unordered(mask, s.bs, s.as, delta), 2*pairs
			}
			if v.Unordered == 0 && n > 0 {
				first, firstDelta = s, delta
			}
			v.Pairs += pairs
			v.Unordered += n
		}
	}
	if first != nil {
		v.RaceFree = false
		a, b, swapped := g.witness(first, firstDelta)
		resource, opA, opB := "channel ", "writes", "reads"
		if first.self {
			resource, opA, opB = "process ", "state", "state"
		}
		if swapped {
			opA, opB = opB, opA
		}
		access := func(frame, i int, op string) Access {
			return Access{Frame: frame, Job: i, Name: tg.Jobs[i].Name(), Proc: g.s.Assign[i].Proc, Op: op}
		}
		v.Witness = &Witness{Resource: resource + first.name, A: access(0, a, opA), B: access(firstDelta, b, opB)}
	}
	return v
}

// unordered counts the pairs of job a in frame 0 and job b in frame delta,
// a ∈ as, b ∈ bs (a ≠ b at delta 0), that no happens-before path orders.
// Each row of as is scanned a word at a time against the mask of bs in
// frame delta; only the pairs the row does not reach need the reverse
// lookup.
func (g *graph) unordered(mask []uint64, as, bs []int, delta int) int {
	clear(mask)
	for _, b := range bs {
		nb := g.node(delta, b)
		mask[nb/64] |= 1 << (nb % 64)
	}
	lo, hi := delta*g.n/64, ((delta+1)*g.n+63)/64
	n := 0
	for _, a := range as {
		row := g.desc[a*g.words:]
		for k := lo; k < hi; k++ {
			for m := mask[k] &^ row[k]; m != 0; m &= m - 1 {
				nb := k*64 + bits.TrailingZeros64(m)
				if nb != a && g.desc[nb*g.words+a/64]&(1<<(a%64)) == 0 {
					n++
				}
			}
		}
	}
	return n
}

// witness returns the site's first unordered pair at frame distance delta
// in enumeration order: instance pairs (x ≤ y for a process), each checked
// as (0, a) against (delta, b) and then, swapped, (0, b) against
// (delta, a). With a frame shift these cover every instance pair of the
// conflict at this distance.
func (g *graph) witness(s *conflictSite, delta int) (a, b int, swapped bool) {
	for x, a := range s.as {
		bs := s.bs
		if s.self {
			bs = bs[x:]
		}
		for _, b := range bs {
			if (delta > 0 || a != b) && !g.ordered(a, delta, b) {
				return a, b, false
			}
			if delta > 0 && a != b && !g.ordered(b, delta, a) {
				return b, a, true
			}
		}
	}
	panic("hb: counted an unordered pair that the enumeration does not reach")
}

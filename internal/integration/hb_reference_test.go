package integration

import (
	"sort"

	"repro/internal/hb"
	"repro/internal/plan"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// rationalProcessorOrder sorts each processor's jobs by rational start
// time, ties by job index.
func rationalProcessorOrder(s *sched.Schedule) [][]int { return refOf(s).processorOrder() }

// hbVerifyReference is the rational happens-before verifier that
// hb.Verify replaced: gate times are exact rationals sorted with Rat.Less,
// the processor chains are re-sorted by rational start time, adjacency is
// one slice per node, and every conflict carries its resource strings.
func hbVerifyReference(p *plan.Plan) hb.Verdict {
	g := buildRefGraph(p)
	g.close()
	return g.checkConflicts()
}

// refGraph is the happens-before graph over the verification window.
type refGraph struct {
	p  *plan.Plan
	tg *taskgraph.TaskGraph
	n  int // jobs per frame
	w  int // window size in frames

	jobProc []int // processor per frame-job index

	nodes int     // w*n job nodes + gate nodes
	succ  [][]int // adjacency
	edges int

	// desc[v] is the bitset of JOB nodes reachable from job node v
	// (excluding v itself unless v lies on a cycle, which validated plans
	// never do). Gate nodes have no retained rows: conflict queries only
	// ever name job nodes, so gate reachability is transient DP state.
	desc [][]uint64
}

// node returns the graph node of job i in window frame f.
func (g *refGraph) node(f, i int) int { return f*g.n + i }

func (g *refGraph) addEdge(a, b int) {
	g.succ[a] = append(g.succ[a], b)
	g.edges++
}

// buildRefGraph assembles the nodes and the three edge classes.
func buildRefGraph(p *plan.Plan) *refGraph {
	tg := p.TaskGraph()
	s := p.S
	n := len(tg.Jobs)
	h := tg.Hyperperiod

	// Window: 1 + ceil(maxD / H) frames (at least 2).
	maxD := rational.Rat{}
	for _, j := range tg.Jobs {
		if maxD.Less(j.Deadline) {
			maxD = j.Deadline
		}
	}
	span := 1
	for h.MulInt(int64(span)).Less(maxD) {
		span++
	}
	w := span + 1

	g := &refGraph{p: p, tg: tg, n: n, w: w}
	g.jobProc = make([]int, n)
	for i := range tg.Jobs {
		g.jobProc[i] = s.Assign[i].Proc
	}

	// Absolute ready lower bounds and deadlines per (frame, job) drive
	// the gate chain. Collect the distinct time values first.
	ready := func(f, i int) rational.Rat {
		j := tg.Jobs[i]
		base := h.MulInt(int64(f))
		if j.Server {
			return base
		}
		return base.Add(j.Arrival)
	}
	deadline := func(f, i int) rational.Rat {
		return h.MulInt(int64(f)).Add(tg.Jobs[i].Deadline)
	}
	values := make([]rational.Rat, 0, 2*w*n)
	for f := 0; f < w; f++ {
		for i := 0; i < n; i++ {
			values = append(values, ready(f, i), deadline(f, i))
		}
	}
	sort.Slice(values, func(a, b int) bool { return values[a].Less(values[b]) })
	gates := values[:0]
	for _, v := range values {
		if len(gates) == 0 || !gates[len(gates)-1].Equal(v) {
			gates = append(gates, v)
		}
	}
	gateID := func(t rational.Rat) int {
		// t is always a member of gates.
		lo, hi := 0, len(gates)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if gates[mid].Less(t) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return w*n + lo
	}

	g.nodes = w*n + len(gates)
	g.succ = make([][]int, g.nodes)

	// Program order: each processor goroutine runs its static chain once
	// per frame, frames in sequence.
	for _, chain := range rationalProcessorOrder(s) {
		for f := 0; f < w; f++ {
			for k := 1; k < len(chain); k++ {
				g.addEdge(g.node(f, chain[k-1]), g.node(f, chain[k]))
			}
			if f+1 < w && len(chain) > 0 {
				g.addEdge(g.node(f, chain[len(chain)-1]), g.node(f+1, chain[0]))
			}
		}
	}

	// Precedence: the task graph's edges, per frame (RunConcurrent waits
	// on same-frame predecessor completion).
	for _, e := range tg.Edges() {
		for f := 0; f < w; f++ {
			g.addEdge(g.node(f, e[0]), g.node(f, e[1]))
		}
	}

	// Time separation, via the gate chain: job → gate(deadline) and
	// gate(ready) → job, so a ⇝ b exactly when deadline(a) ≤ ready(b).
	for k := 1; k < len(gates); k++ {
		g.addEdge(w*n+k-1, w*n+k)
	}
	for f := 0; f < w; f++ {
		for i := 0; i < n; i++ {
			g.addEdge(g.node(f, i), gateID(deadline(f, i)))
			g.addEdge(gateID(ready(f, i)), g.node(f, i))
		}
	}
	return g
}

// close computes per-job-node descendant bitsets, restricted to job-node
// columns. The graph of a validated plan is a DAG (all edge classes point
// forward in frame and time), so a single reverse-topological sweep
// suffices. Gate nodes exist only to factor the quadratic time-separation
// relation into O(nodes) edges; conflict queries never name them, so a
// gate's row is drawn from a small pool during the sweep and released the
// moment its last predecessor has folded it in — only the J×J job matrix
// (J = w·n) is retained, instead of the full (J+gates)² closure.
func (g *refGraph) close() {
	jobs := g.w * g.n
	words := (jobs + 63) / 64
	g.desc = make([][]uint64, jobs)
	backing := make([]uint64, jobs*words)
	for v := range g.desc {
		g.desc[v] = backing[v*words : (v+1)*words]
	}

	order, acyclic := g.topoOrder()
	if !acyclic {
		g.closeFixpoint(order)
		return
	}

	// pending[s] counts unprocessed predecessors: once it hits zero no
	// later sweep step reads s's row, so a gate row can be recycled.
	pending := make([]int, g.nodes)
	for _, succ := range g.succ {
		for _, s := range succ {
			pending[s]++
		}
	}
	gateRow := make([][]uint64, g.nodes-jobs)
	var pool [][]uint64
	// Reverse topological order: successors first.
	for k := len(order) - 1; k >= 0; k-- {
		v := order[k]
		var dv []uint64
		if v < jobs {
			dv = g.desc[v]
		} else {
			if n := len(pool) - 1; n >= 0 {
				dv, pool = pool[n], pool[:n]
				clear(dv)
			} else {
				dv = make([]uint64, words)
			}
			gateRow[v-jobs] = dv
		}
		for _, s := range g.succ[v] {
			var ds []uint64
			if s < jobs {
				dv[s/64] |= 1 << (s % 64)
				ds = g.desc[s]
			} else {
				ds = gateRow[s-jobs]
			}
			for w := 0; w < words; w++ {
				dv[w] |= ds[w]
			}
			if pending[s]--; pending[s] == 0 && s >= jobs {
				pool = append(pool, gateRow[s-jobs])
				gateRow[s-jobs] = nil
			}
		}
	}
}

// closeFixpoint is the defensive slow path for graphs with a cycle
// (impossible for validated plans, reachable from hand-built inputs): the
// full per-node closure matrix, iterated to a fixpoint. Job rows keep
// full-node width here — ordered only tests job-node bits, which occupy
// the same positions either way.
func (g *refGraph) closeFixpoint(order []int) {
	words := (g.nodes + 63) / 64
	desc := make([][]uint64, g.nodes)
	backing := make([]uint64, g.nodes*words)
	for v := range desc {
		desc[v] = backing[v*words : (v+1)*words]
	}
	for pass := 0; pass < g.nodes; pass++ {
		changed := false
		// Reverse topological order: successors first.
		for k := len(order) - 1; k >= 0; k-- {
			v := order[k]
			dv := desc[v]
			for _, s := range g.succ[v] {
				if dv[s/64]&(1<<(s%64)) == 0 {
					dv[s/64] |= 1 << (s % 64)
					changed = true
				}
				ds := desc[s]
				for w := 0; w < words; w++ {
					if ds[w]&^dv[w] != 0 {
						dv[w] |= ds[w]
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	g.desc = desc[:g.w*g.n]
}

// topoOrder returns a topological order via Kahn's algorithm and whether
// it covered every node; nodes on a cycle (impossible for validated plans)
// are appended in index order and handled by the fixpoint slow path.
func (g *refGraph) topoOrder() ([]int, bool) {
	indeg := make([]int, g.nodes)
	for _, succ := range g.succ {
		for _, s := range succ {
			indeg[s]++
		}
	}
	order := make([]int, 0, g.nodes)
	queue := make([]int, 0, g.nodes)
	for v := 0; v < g.nodes; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	seen := make([]bool, g.nodes)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		seen[v] = true
		for _, s := range g.succ[v] {
			if indeg[s]--; indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	acyclic := len(order) == g.nodes
	for v := 0; v < g.nodes; v++ {
		if !seen[v] {
			order = append(order, v)
		}
	}
	return order, acyclic
}

// ordered reports whether the two job instances are happens-before
// related (in either direction).
func (g *refGraph) ordered(fa, a, fb, b int) bool {
	na, nb := g.node(fa, a), g.node(fb, b)
	return g.desc[na][nb/64]&(1<<(nb%64)) != 0 ||
		g.desc[nb][na/64]&(1<<(na%64)) != 0
}

// refConflict is one structural conflict: two frame-job indices, the shared
// resource (kind + name, joined lazily — only a witness ever renders the
// string) and the operation labels.
type refConflict struct {
	a, b       int
	kind, name string
	opA, opB   string
}

// checkConflicts enumerates the conflicting access pairs and queries the
// closed graph. Pairs are checked smallest frame delta first so the
// witness is minimal in window distance. The enumeration is streamed:
// conflicts are regenerated from the network structure for every frame
// delta instead of being materialized into a scratch slice — on job-heavy
// plans that slice is quadratic in the per-frame job count and dominated
// the verifier's footprint.
func (g *refGraph) checkConflicts() hb.Verdict {
	tg := g.tg
	byProc := make(map[string][]int, len(tg.Net.ProcessNames()))
	for i, j := range tg.Jobs {
		byProc[j.Proc] = append(byProc[j.Proc], i)
	}
	names := tg.Net.ProcessNames()
	chans := tg.Net.Channels()

	v := hb.Verdict{RaceFree: true, Frames: g.w, Nodes: g.nodes, Edges: g.edges}
	report := func(delta int, c refConflict, swapped bool) {
		v.Unordered++
		if v.Witness != nil {
			return
		}
		a := hb.Access{Frame: 0, Job: c.a, Name: tg.Jobs[c.a].Name(), Proc: g.jobProc[c.a], Op: c.opA}
		b := hb.Access{Frame: delta, Job: c.b, Name: tg.Jobs[c.b].Name(), Proc: g.jobProc[c.b], Op: c.opB}
		if swapped {
			a, b = hb.Access{Frame: 0, Job: c.b, Name: tg.Jobs[c.b].Name(), Proc: g.jobProc[c.b], Op: c.opB},
				hb.Access{Frame: delta, Job: c.a, Name: tg.Jobs[c.a].Name(), Proc: g.jobProc[c.a], Op: c.opA}
		}
		v.Witness = &hb.Witness{Resource: c.kind + " " + c.name, A: a, B: b}
	}
	check := func(delta int, c refConflict) {
		if delta == 0 {
			if c.a == c.b {
				return // one instance is not a pair
			}
			v.Pairs++
			if !g.ordered(0, c.a, 0, c.b) {
				v.RaceFree = false
				report(0, c, false)
			}
			return
		}
		// (0, a) against (delta, b) and (0, b) against (delta, a):
		// with a frame shift these cover every instance pair of the
		// conflict at this distance.
		v.Pairs++
		if !g.ordered(0, c.a, delta, c.b) {
			v.RaceFree = false
			report(delta, c, false)
		}
		if c.a != c.b {
			v.Pairs++
			if !g.ordered(0, c.b, delta, c.a) {
				v.RaceFree = false
				report(delta, c, true)
			}
		}
	}
	for delta := 0; delta < g.w; delta++ {
		// Same-process shared state: every instance pair of a process.
		for _, name := range names {
			jobs := byProc[name]
			for x := 0; x < len(jobs); x++ {
				for y := x; y < len(jobs); y++ {
					check(delta, refConflict{
						a: jobs[x], b: jobs[y],
						kind: "process", name: name,
						opA: "state", opB: "state",
					})
				}
			}
		}
		// Internal channels: writer instance × reader instance.
		for _, c := range chans {
			if c.Writer == c.Reader {
				continue // ordered by the process's own job order
			}
			for _, wj := range byProc[c.Writer] {
				for _, rj := range byProc[c.Reader] {
					check(delta, refConflict{
						a: wj, b: rj,
						kind: "channel", name: c.Name,
						opA: "writes", opB: "reads",
					})
				}
			}
		}
	}
	return v
}

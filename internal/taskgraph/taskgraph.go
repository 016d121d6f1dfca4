// Package taskgraph derives static task graphs from fixed-priority process
// networks (Section III-A of the DATE 2015 paper) and implements the
// associated analysis: ASAP/ALAP windows, the precedence-aware Load metric,
// the nominal processor-demand bound and the necessary schedulability
// condition of Proposition 3.1, all from one corner-window sweep on the
// graph's integer timescale (analysis.go).
//
// The derivation follows the paper's recipe:
//
//  1. Replace every sporadic process p by an imaginary m-periodic "server"
//     process p' with burst m_p and period T_p' = T_u(p) (the period of p's
//     unique periodic user process), or a fraction of it when the deadline
//     correction d_p' = d_p − T_p' would not be positive. The functional
//     priority of the server is p' → u(p).
//  2. Simulate the job invocation order in the modified network PN' for one
//     hyperperiod H = lcm{T_p}, giving the totally ordered job sequence <_J.
//  3. Add a precedence edge (J_a, J_b) whenever J_a <_J J_b and the two jobs
//     belong to the same process or to functional-priority-related
//     processes.
//  4. Truncate required times to the hyperperiod (non-pipelined frames).
//  5. Remove redundant edges by transitive reduction.
package taskgraph

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/rational"
)

// Time aliases the exact rational time used across the repository.
type Time = rational.Rat

// Job is a task-graph node: the k-th job of a process within one
// hyperperiod frame, characterized by the tuple (p_i, k_i, A_i, D_i, C_i)
// of Definition 3.1.
type Job struct {
	// Index is the position of the job in the total order <_J; edges only
	// point from lower to higher indices.
	Index int
	// Proc is the process name. Server jobs keep the name of the sporadic
	// process they serve.
	Proc string
	// Pid is the process's pid: its index in Net.Processes().
	Pid int
	// K is the invocation count within the frame (1-based).
	K int64
	// Arrival is A_i, relative to the frame start.
	Arrival Time
	// Deadline is the required time D_i (absolute within the frame,
	// truncated to the hyperperiod).
	Deadline Time
	// WCET is C_i.
	WCET Time
	// Server reports whether this is a periodic-server job standing in
	// for sporadic invocations.
	Server bool
	// Subset is the 1-based index n of the server subset the job belongs
	// to (server jobs invoked in the same user period); 0 for ordinary
	// jobs.
	Subset int
	// SlotInSubset is the 1-based position t of the job inside its server
	// subset; the t-th server job stands in for the t-th real invocation
	// in the subset window. 0 for ordinary jobs.
	SlotInSubset int
}

// Name returns the paper's p[k] notation.
func (j *Job) Name() string { return j.Proc + "[" + strconv.FormatInt(j.K, 10) + "]" }

// String renders the node like Fig. 3: "p[k] (A,D,C)" in milliseconds.
func (j *Job) String() string {
	return fmt.Sprintf("%s (%v,%v,%v)",
		j.Name(), j.Arrival.MulInt(1000), j.Deadline.MulInt(1000), j.WCET.MulInt(1000))
}

// TaskGraph is a derived task graph TG(J, E) plus the bookkeeping the
// online scheduling policy needs to map server jobs back to sporadic
// events.
type TaskGraph struct {
	// Net is the source network.
	Net *core.Network
	// Hyperperiod is the frame length H.
	Hyperperiod Time
	// Jobs lists the nodes in <_J order.
	Jobs []*Job
	// Succ and Pred are adjacency lists (job indices) after transitive
	// reduction. With Edges they are the graph's only edge structure: it
	// keeps no reachability index (see HasPath).
	Succ [][]int
	Pred [][]int
	// CandidateEdgeCount is the number of precedence edges generated by
	// the derivation rule before transitive reduction (with same-process
	// and per-related-process chains already collapsed to direct
	// successors).
	CandidateEdgeCount int
	// ServerPeriod maps each sporadic process to its server period T_p'.
	ServerPeriod map[string]Time
	// IncludeRight maps each sporadic process p to the boundary rule of
	// Section IV: true when p → u(p) (the server subset arriving at b
	// handles real jobs invoked in the right-closed window (a, b]),
	// false when u(p) → p (left-closed window [a, b)).
	IncludeRight map[string]bool
	// User maps each sporadic process to its user process u(p).
	User map[string]string

	// jobsOf[pid] lists the indices of process pid's jobs in <_J order,
	// so its k-th job is jobsOf[pid][k-1]. Derive fills it; JobsOf builds
	// it from the jobs' Pid on first use for graphs built by hand.
	jobsOf [][]int
	// related[pid] lists the pids FP'-related to pid (p ⋈ q in PN'), in
	// ascending order and without pid itself. Nil for graphs built by
	// hand, whose processes are then related to none.
	related [][]int

	// edges memoizes Edges(): the reduced edge list in lexicographic
	// order, computed eagerly at derivation so repeated calls (scheduling,
	// export, the rt precedence closure) stop re-sorting the adjacency
	// lists.
	edges [][2]int
	// ticks memoizes Ticks(): the jobs' timing on the integer timescale,
	// filled by the frame simulation at derivation. ticksErr memoizes the
	// failure of a hand-built graph's lowering.
	ticks    *JobTicks
	ticksErr error
}

// Related reports whether the processes with pids p and q are
// functional-priority related in PN' (p ⋈ q, with sporadic processes
// related to their users) or equal, i.e. whether their jobs are ordered by
// precedence edges.
func (tg *TaskGraph) Related(p, q int) bool {
	_, found := slices.BinarySearch(tg.RelatedPids(p), q)
	return p == q || found
}

// RelatedPids returns the pids FP'-related to pid in ascending order,
// pid itself excluded. The slice is shared; callers must not mutate it.
func (tg *TaskGraph) RelatedPids(pid int) []int {
	if pid < 0 || pid >= len(tg.related) {
		return nil
	}
	return tg.related[pid]
}

// JobsOf returns the indices of process pid's jobs in <_J order, so its
// k-th job is JobsOf(pid)[k-1]; nil for an unknown pid. The slice is
// memoized and shared; callers must not mutate it.
func (tg *TaskGraph) JobsOf(pid int) []int {
	if tg.jobsOf == nil {
		tg.jobsOf = groupByPid(tg.Jobs)
	}
	if pid < 0 || pid >= len(tg.jobsOf) {
		return nil
	}
	return tg.jobsOf[pid]
}

// groupByPid lists each pid's job indices in index order, carved from one
// backing array; the table has one row per pid up to the largest.
func groupByPid(jobs []*Job) [][]int {
	np := 0
	for _, j := range jobs {
		np = max(np, j.Pid+1)
	}
	counts := make([]int, np)
	for _, j := range jobs {
		counts[j.Pid]++
	}
	out := make([][]int, np)
	backing := make([]int, len(jobs))
	for pid, c := range counts {
		out[pid] = backing[:0:c]
		backing = backing[c:]
	}
	for i, j := range jobs {
		out[j.Pid] = append(out[j.Pid], i)
	}
	return out
}

// EdgeCount returns the number of precedence edges after transitive
// reduction.
func (tg *TaskGraph) EdgeCount() int {
	n := 0
	for _, s := range tg.Succ {
		n += len(s)
	}
	return n
}

// Edges returns all reduced edges as (from, to) index pairs in
// lexicographic order. The slice is memoized and shared; callers must not
// mutate it.
func (tg *TaskGraph) Edges() [][2]int {
	if tg.edges == nil {
		tg.edges = buildEdges(tg.Succ)
	}
	return tg.edges
}

// buildEdges flattens adjacency lists into the lexicographically sorted
// edge list. Succ lists are already sorted by target, so emitting them in
// source order needs no further sort.
func buildEdges(succ [][]int) [][2]int {
	n := 0
	for _, s := range succ {
		n += len(s)
	}
	out := make([][2]int, 0, n)
	for i, s := range succ {
		for _, j := range s {
			out = append(out, [2]int{i, j})
		}
	}
	return out
}

// Job returns the node for process proc's k-th job, or nil.
func (tg *TaskGraph) Job(proc string, k int64) *Job {
	if js := tg.JobsOf(tg.Net.Pid(proc)); k >= 1 && k <= int64(len(js)) {
		return tg.Jobs[js[k-1]]
	}
	return nil
}

// HasEdge reports whether the reduced graph has an edge from a to b.
func (tg *TaskGraph) HasEdge(a, b int) bool {
	for _, s := range tg.Succ[a] {
		if s == b {
			return true
		}
	}
	return false
}

// HasPath reports whether b is reachable from a through the graph's edges,
// by a depth-first search over the jobs between a and b. The graph keeps
// no reachability index, so a derived graph stays linear in its jobs and
// edges.
func (tg *TaskGraph) HasPath(a, b int) bool {
	if a >= b {
		return a == b
	}
	seen := make([]bool, len(tg.Jobs))
	stack := []int{a}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == b {
			return true
		}
		for _, s := range tg.Succ[v] {
			if !seen[s] && s <= b {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// Options tunes the derivation.
type Options struct {
	// KeepRedundantEdges skips the transitive reduction step; used by
	// tests that need to observe the pre-reduction relation.
	KeepRedundantEdges bool
	// DeadlineSlack relaxes the paper's step 4: required times are
	// truncated to H + DeadlineSlack instead of H. A positive slack
	// enables pipelined schedules whose frames overlap by up to the
	// slack (the paper's future-work item); such schedules must pass
	// sched.ValidatePipelined instead of the plain feasibility check.
	DeadlineSlack Time
	// AllowUncoveredChannels derives a task graph even when some channel
	// pairs lack functional-priority coverage (FPPN003). Every other
	// validation rule still applies. Jobs of the uncovered endpoint
	// processes carry no precedence edges between them, so the resulting
	// graph deliberately under-orders the channel accesses: diagnostic
	// pipelines (the FPPN020 happens-before verifier) use this mode to
	// turn a coverage gap into a concrete unordered access-pair witness.
	AllowUncoveredChannels bool
}

// Derive builds the task graph of a validated schedulable network.
func Derive(net *core.Network) (*TaskGraph, error) {
	return DeriveOpts(net, Options{})
}

// validateForDerive enforces the schedulable-subclass validation, optionally
// tolerating FP-coverage gaps (and nothing else) when
// opts.AllowUncoveredChannels is set.
func validateForDerive(net *core.Network, opts Options) error {
	if !opts.AllowUncoveredChannels {
		if err := net.ValidateSchedulable(); err != nil {
			return fmt.Errorf("taskgraph: %w", err)
		}
		return nil
	}
	problems := append(net.Problems(), net.SchedulableProblems()...)
	var errs []error
	for _, p := range problems {
		if p.Code == core.CodeFPCoverage {
			continue
		}
		errs = append(errs, p)
	}
	if len(errs) > 0 {
		return fmt.Errorf("taskgraph: invalid network %q: %w", net.Name, errors.Join(errs...))
	}
	return nil
}

// DeriveOpts is Derive with explicit options. Timing that does not fit
// the integer timescale (see LowerTiming), or a frame of more than 2^20
// jobs, fails with a *TimescaleError before anything is simulated.
func DeriveOpts(net *core.Network, opts Options) (*TaskGraph, error) {
	if err := validateForDerive(net, opts); err != nil {
		return nil, err
	}

	// Step 1: server transformation.
	srv, err := serverTransform(net)
	if err != nil {
		return nil, err
	}

	// One timescale for everything below, including H of PN'.
	tm, err := lowerTiming(net, srv.period, opts.DeadlineSlack)
	if err != nil {
		return nil, err
	}
	if tm.Jobs > MaxFrameJobs {
		return nil, &TimescaleError{Kind: "network", Subject: net.Name,
			Reason: fmt.Sprintf("its hyperperiod %vs holds more than 2^20 jobs", tm.Hyperperiod)}
	}

	// FP' orders simultaneous jobs (its rank) and relates processes (the
	// step-3 rule).
	fp := fpPrime(net, srv.userPid)
	rank, ok := core.PriorityOrder(net.ProcessNames(), fp, -1)
	if !ok {
		return nil, fmt.Errorf("taskgraph: FP' graph has a cycle (check priorities between sporadic processes and their users)")
	}

	// Step 2: simulate the invocation order of PN' over [0, H).
	jobs, jobPid, ticks := simulateFrameTicks(net, tm, rank)

	tg := &TaskGraph{
		Net:          net,
		Hyperperiod:  tm.Hyperperiod,
		Jobs:         jobs,
		ServerPeriod: srv.period,
		IncludeRight: srv.includeRight,
		User:         srv.user,
		jobsOf:       groupByPid(jobs),
		related:      relatedPids(len(rank), fp),
		ticks:        ticks,
	}

	// Step 3: candidate precedence edges.
	cand := candidateEdges(jobPid, tg.related)
	tg.CandidateEdgeCount = countEdges(cand)

	// Step 5: transitive reduction (step 4, deadline truncation, happened
	// during job construction).
	if !opts.KeepRedundantEdges {
		cand = transitiveReduction(cand, jobPid, len(rank))
	}
	tg.Succ = cand
	tg.Pred = invert(cand)
	tg.edges = buildEdges(cand)
	return tg, nil
}

// servers is the server transformation of step 1: every sporadic process
// p gets the server period T'_p, its user u(p) and the boundary rule
// (TaskGraph.IncludeRight) of Section IV. userPid[pid] is the pid of
// u(pid), or -1 for periodic processes.
type servers struct {
	period       map[string]Time
	user         map[string]string
	includeRight map[string]bool
	userPid      []int
}

func serverTransform(net *core.Network) (servers, error) {
	procs := net.Processes()
	srv := servers{
		period:       make(map[string]Time),
		user:         make(map[string]string),
		includeRight: make(map[string]bool),
		userPid:      make([]int, len(procs)),
	}
	for pid, p := range procs {
		srv.userPid[pid] = -1
		if !p.IsSporadic() {
			continue
		}
		u, err := net.UserOf(p.Name)
		if err != nil {
			return servers{}, fmt.Errorf("taskgraph: %w", err)
		}
		tp, err := serverPeriodFor(p, u)
		if err != nil {
			return servers{}, err
		}
		srv.period[p.Name] = tp
		srv.user[p.Name] = u.Name
		srv.userPid[pid] = net.Pid(u.Name)
		srv.includeRight[p.Name] = net.HasPriority(p.Name, u.Name)
	}
	return srv, nil
}

// serverPeriodFor computes T_p' for sporadic p with user u: T_u, or the
// largest fraction T_u/q that keeps the corrected deadline d_p − T_p'
// positive (footnote 3 of the paper).
func serverPeriodFor(p, u *core.Process) (Time, error) {
	tu, d := u.Period(), p.Deadline()
	if d.Sign() <= 0 {
		return rational.Zero, fmt.Errorf(
			"taskgraph: cannot find server period for sporadic %q (T_u=%v, d=%v)", p.Name, tu, d)
	}
	if tu.Less(d) {
		return tu, nil
	}
	_, tp, ok := FractionalServerPeriod(tu, d)
	if !ok {
		return rational.Zero, &TimescaleError{Kind: "process", Subject: p.Name,
			Reason: fmt.Sprintf("no fraction of the user period %vs below the deadline %vs fits int64", tu, d)}
	}
	return tp, nil
}

// FractionalServerPeriod returns the fractional server period T_u/q of
// footnote 3 for a sporadic deadline 0 < d ≤ T_u: the largest fraction of
// the user period below d, with q = ⌊T_u/d⌋ + 1. ok is false when d is
// not positive or when q or T_u/q does not fit int64.
func FractionalServerPeriod(tu, d Time) (q int64, tp Time, ok bool) {
	if d.Sign() <= 0 {
		return 0, rational.Zero, false
	}
	q, ok = tu.FloorDivOK(d)
	if ok {
		q, ok = rational.AddOK(q, 1)
	}
	var den int64
	if ok {
		den, ok = rational.MulOK(tu.Den(), q)
	}
	if !ok || q < 1 {
		return 0, rational.Zero, false
	}
	return q, rational.New(tu.Num(), den), true
}

// fpPrime returns FP' as [hi, lo] pid edges: FP without the edges that
// touch a sporadic process, plus the server edge p' → u(p) of every
// sporadic p (userPid as in servers).
func fpPrime(net *core.Network, userPid []int) [][2]int {
	var edges [][2]int
	for _, e := range net.PriorityPids() {
		if userPid[e[0]] < 0 && userPid[e[1]] < 0 {
			edges = append(edges, e)
		}
	}
	for p, u := range userPid {
		if u >= 0 {
			edges = append(edges, [2]int{p, u})
		}
	}
	return edges
}

// relatedPids turns edges over np processes into the symmetric
// relatedness table: row p lists every q ≠ p joined to p by an edge in
// either direction, ascending and once each, carved from one backing
// array.
func relatedPids(np int, edges [][2]int) [][]int {
	counts := make([]int, np)
	for _, e := range edges {
		counts[e[0]]++
		counts[e[1]]++
	}
	rel := make([][]int, np)
	backing := make([]int, 2*len(edges))
	for p, c := range counts {
		rel[p] = backing[:0:c]
		backing = backing[c:]
	}
	for _, e := range edges {
		rel[e[0]] = append(rel[e[0]], e[1])
		rel[e[1]] = append(rel[e[1]], e[0])
	}
	for p := range rel {
		slices.Sort(rel[p])
		rel[p] = slices.Compact(rel[p])
	}
	return rel
}

func dedupInts(s []int) []int {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// invert builds predecessor lists, carved from one backing array sized by
// the exact in-degrees so the inversion allocates O(1) slices.
func invert(succ [][]int) [][]int {
	n := len(succ)
	counts := make([]int, n)
	total := 0
	for _, out := range succ {
		total += len(out)
		for _, u := range out {
			counts[u]++
		}
	}
	pred := make([][]int, n)
	backing := make([]int, total)
	for u := 0; u < n; u++ {
		pred[u] = backing[:0:counts[u]]
		backing = backing[counts[u]:]
	}
	for v, out := range succ {
		for _, u := range out {
			pred[u] = append(pred[u], v)
		}
	}
	return pred
}

func countEdges(succ [][]int) int {
	n := 0
	for _, s := range succ {
		n += len(s)
	}
	return n
}

// Summary returns a one-line description like
// "task graph: 812 jobs, 1977 edges, H=10s, load=0.23"; the load reads "?"
// when the graph's timing does not fit the integer timescale.
func (tg *TaskGraph) Summary() string {
	load := "?"
	if l, err := tg.Load(); err == nil {
		load = fmt.Sprintf("%.3f", l.Float64())
	}
	return fmt.Sprintf("task graph: %d jobs, %d edges, H=%v s, load=%s",
		len(tg.Jobs), tg.EdgeCount(), tg.Hyperperiod, load)
}

// DOT renders the reduced task graph in Graphviz format, nodes labelled as
// in Fig. 3.
func (tg *TaskGraph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n", tg.Net.Name)
	for _, j := range tg.Jobs {
		shape := "box"
		if j.Server {
			shape = "ellipse"
		}
		fmt.Fprintf(&b, "  %d [label=%q shape=%s];\n", j.Index, j.String(), shape)
	}
	for _, e := range tg.Edges() {
		fmt.Fprintf(&b, "  %d -> %d;\n", e[0], e[1])
	}
	b.WriteString("}\n")
	return b.String()
}

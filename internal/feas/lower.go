package feas

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/rational"
	"repro/internal/taskgraph"
)

// lowering is the task graph on its integer timescale: the tick table
// (arrivals, WCETs and deadlines) with the precedence-adjusted windows.
type lowering struct {
	*taskgraph.Windows
	tg *taskgraph.TaskGraph
	// hasZero reports a zero-WCET job, which defeats the work-conserving
	// busy-interval argument behind the chain bounds.
	hasZero bool
}

// lower reads the task graph's windows (TaskGraph.Windows); the error is
// the graph's *taskgraph.TimescaleError when its timing does not fit.
func lower(tg *taskgraph.TaskGraph) (*lowering, error) {
	w, err := tg.Windows()
	if err != nil {
		return nil, fmt.Errorf("feas: %w", err)
	}
	return &lowering{Windows: w, tg: tg, hasZero: slices.Contains(w.WCET, 0)}, nil
}

// workloadTicks extracts volume, span and the load with its witness
// window on the integer timescale; volume is Σ C_i in ticks.
func workloadTicks(lo *lowering) (w Workload, volume int64) {
	tg := lo.tg
	n := len(tg.Jobs)
	w = Workload{Jobs: n, Hyperperiod: tg.Hyperperiod,
		Volume: rational.Zero, Span: rational.Zero, Load: rational.Zero}
	if n == 0 {
		return w, 0
	}
	for _, c := range lo.WCET {
		volume += c
	}
	// Span: longest WCET chain, computed sink-to-source.
	span := make([]int64, n)
	best := int64(0)
	for i := n - 1; i >= 0; i-- {
		t := int64(0)
		for _, s := range tg.Succ[i] {
			if span[s] > t {
				t = span[s]
			}
		}
		span[i] = t + lo.WCET[i]
		if span[i] > best {
			best = span[i]
		}
	}
	w.Volume = lo.Scale.FromTicks(volume)
	w.Span = lo.Scale.FromTicks(best)
	for i, j := range tg.Jobs {
		if done := lo.ASAP[i] + lo.WCET[i]; done > lo.ALAP[i] {
			w.violations = append(w.violations, Bound{
				Job:      j.Name(),
				Proc:     j.Proc,
				Complete: lo.Scale.FromTicks(done),
				Deadline: lo.Scale.FromTicks(lo.ALAP[i]),
			})
		}
	}
	w.critical = lo.Load()
	w.Load = w.critical.Density
	return w, volume
}

// analyzeTicks runs the workload extraction and every test, in Tests
// order, on the integer timescale.
func analyzeTicks(lo *lowering, m int) *Report {
	w, volume := workloadTicks(lo)
	rep := &Report{M: m, Workload: w, Results: make([]Result, len(Tests))}
	for i, t := range Tests {
		rep.Results[i] = runTestTicks(lo, w, volume, t, m)
	}
	return rep
}

// runTestTicks evaluates one test: the shared necessary conditions first
// (window fit, load criterion — both valid even under preemption, so an
// Infeasible verdict implies sched.MinProcessors > m), then the test's
// sufficient bound. Chain bounds that exceed a deadline yield Unknown,
// never Infeasible.
func runTestTicks(lo *lowering, w Workload, volume int64, t Test, m int) Result {
	res := Result{Test: t, M: m}
	n := len(lo.tg.Jobs)
	if n == 0 {
		res.Verdict = Feasible
		res.Certified = true
		res.Reason = "empty frame: no jobs to schedule"
		return res
	}
	// Necessary: every job must fit its precedence-adjusted window.
	if v := w.WindowViolations(); len(v) > 0 {
		res.Verdict = Infeasible
		res.worst, res.hasWorst = v[0], true
		res.Reason = fmt.Sprintf(
			"job %s cannot fit its window on any processor count: earliest completion %v exceeds latest allowed %v",
			v[0].Job, v[0].Complete, v[0].Deadline)
		return res
	}
	// Necessary: the corner-window demand criterion at m processors.
	if lb := w.MinProcessorsLB(); lb > m {
		res.Verdict = Infeasible
		res.witness, res.hasWitness = w.Critical()
		res.Reason = fmt.Sprintf(
			"window [%v, %v] holds demand %v: load %v forces at least %d processors, have %d",
			res.witness.Start, res.witness.End, res.witness.Demand, w.Load, lb, m)
		return res
	}
	// Exact single-processor verdict: with the window and demand checks
	// passed, preemptive EDF* meets every deadline (Chetto, Silly &
	// Bouchentouf), so the EDF test is never Unknown at m = 1. The
	// schedule is preemptive, so the verdict is not certified for the
	// non-preemptive list scheduler.
	if t == EDF && m == 1 {
		res.Verdict = Feasible
		res.Reason = fmt.Sprintf(
			"single-processor demand criterion is exact: load %v <= 1 under EDF on modified windows", w.Load)
		return res
	}
	// With at least one processor per job, every work-conserving schedule
	// runs each job at its ASAP time, and the window check above already
	// verified those against the ALAP deadlines.
	if m >= n {
		res.Verdict = Feasible
		res.Certified = !lo.hasZero
		res.Reason = fmt.Sprintf("%d processors for %d jobs: the ASAP schedule needs no contention", m, n)
		return res
	}
	if lo.hasZero {
		res.Verdict = Unknown
		res.Reason = "zero-WCET job defeats the work-conserving busy-interval argument; only necessary conditions apply"
		return res
	}
	g, ok := grahamTicks(lo, m)
	if !ok {
		res.Verdict = Unknown
		res.Reason = "chain bound overflows the integer timescale; only necessary conditions apply"
		return res
	}
	switch t {
	case EDF:
		boundTicks(lo, m, &res, func(i int) (int64, bool) {
			return rational.AddOK(g[i], volume)
		}, "Graham chain bound with total volume")
	case DM:
		dm := dmTicks(lo)
		boundTicks(lo, m, &res, func(i int) (int64, bool) {
			v, ok := rational.AddOK(g[i], dm.hpvol[dm.wr[i]])
			if !ok {
				return 0, false
			}
			blk, ok := rational.MulOK(int64(m)*dm.chain[i], dm.blockMax[dm.wr[i]])
			if !ok {
				return 0, false
			}
			return rational.AddOK(v, blk)
		}, "deadline-monotonic chain bound with rank-filtered interference")
	case RTA:
		s, ok := rtaTicks(lo, volume, g, m)
		if !ok {
			res.Verdict = Unknown
			res.Reason = "response-time iteration overflows the integer timescale; only necessary conditions apply"
			return res
		}
		boundTicks(lo, m, &res, func(i int) (int64, bool) {
			return s[i], true
		}, "response-time iteration with arrival-filtered interference")
	}
	return res
}

// grahamTicks computes the m-scaled chain-anchor bound
//
//	g_i = max(m·A_i, max_{p ∈ Pred(i)} g_p) + (m−1)·C_i
//
// so that every work-conserving non-preemptive list schedule completes
// job i by (g_i + V_i)/m, where V_i bounds the interfering volume (total
// volume for EDF; refined per test). ok is false on int64 overflow.
func grahamTicks(lo *lowering, m int) ([]int64, bool) {
	n := len(lo.tg.Jobs)
	g := make([]int64, n)
	for i := range lo.tg.Jobs {
		base, ok := rational.MulOK(int64(m), lo.Arrival[i])
		if !ok {
			return nil, false
		}
		for _, p := range lo.tg.Pred[i] {
			if g[p] > base {
				base = g[p]
			}
		}
		step, ok := rational.MulOK(int64(m-1), lo.WCET[i])
		if !ok {
			return nil, false
		}
		v, ok := rational.AddOK(base, step)
		if !ok {
			return nil, false
		}
		g[i] = v
	}
	return g, true
}

// boundTicks applies one m-scaled completion bound to every job: job i is
// guaranteed to finish by bound(i)/m ticks, so the test passes when
// bound(i) <= m·D_i everywhere. The binding job (minimum slack, lowest
// index on ties) becomes the result's Worst record. Bound overflow turns
// the verdict Unknown.
func boundTicks(lo *lowering, m int, res *Result, bound func(i int) (int64, bool), how string) {
	n := len(lo.tg.Jobs)
	worst, worstSlack := -1, int64(0)
	for i := 0; i < n; i++ {
		b, ok := bound(i)
		if !ok {
			res.Verdict = Unknown
			res.Reason = "chain bound overflows the integer timescale; only necessary conditions apply"
			return
		}
		slack := int64(m)*lo.Deadline[i] - b
		if worst < 0 || slack < worstSlack {
			worst, worstSlack = i, slack
		}
	}
	res.worst = Bound{
		Job:      lo.tg.Jobs[worst].Name(),
		Proc:     lo.tg.Jobs[worst].Proc,
		Complete: lo.Scale.FromTicks(mustBound(bound, worst)).DivInt(int64(m)),
		Deadline: lo.Scale.FromTicks(lo.Deadline[worst]),
	}
	res.hasWorst = true
	if worstSlack >= 0 {
		res.Verdict = Feasible
		res.Certified = true
		res.Reason = fmt.Sprintf("%s: worst job %s completes by %v within deadline %v",
			how, res.worst.Job, res.worst.Complete, res.worst.Deadline)
	} else {
		res.Verdict = Unknown
		res.Reason = fmt.Sprintf("%s exceeds the deadline of %s (bound %v > %v); the test is inconclusive",
			how, res.worst.Job, res.worst.Complete, res.worst.Deadline)
	}
}

func mustBound(bound func(i int) (int64, bool), i int) int64 {
	b, _ := bound(i) // already evaluated without overflow in the scan
	return b
}

// dmData is the fixed-priority precomputation: deadline-monotonic ranks
// exactly matching the sched DeadlineMonotonic heuristic (key D_i − A_i,
// ties by job index), higher-priority volume prefix sums, worst chain
// rank, chain node counts and the lower-priority blocking maxima.
type dmData struct {
	// hpvol[r] is Σ C_j over jobs with rank <= r.
	hpvol []int64
	// wr[i] is the maximum rank over chains ending at i: every job whose
	// rank exceeds it is lower-priority for the whole chain.
	wr []int
	// chain[i] is the longest chain ending at i counted in jobs: each
	// element can be blocked once per processor by a carried-in
	// lower-priority job.
	chain []int64
	// blockMax[r] is the largest WCET among jobs of rank > r (0 if none).
	blockMax []int64
}

func dmTicks(lo *lowering) dmData {
	n := len(lo.tg.Jobs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		kx, ky := lo.Deadline[idx[x]]-lo.Arrival[idx[x]], lo.Deadline[idx[y]]-lo.Arrival[idx[y]]
		if kx != ky {
			return kx < ky
		}
		return idx[x] < idx[y]
	})
	rank := make([]int, n)
	for r, i := range idx {
		rank[i] = r
	}
	dm := dmData{
		hpvol:    make([]int64, n),
		wr:       make([]int, n),
		chain:    make([]int64, n),
		blockMax: make([]int64, n),
	}
	acc := int64(0)
	for r, i := range idx {
		acc += lo.WCET[i]
		dm.hpvol[r] = acc
	}
	suffix := int64(0)
	for r := n - 1; r >= 0; r-- {
		dm.blockMax[r] = suffix
		if c := lo.WCET[idx[r]]; c > suffix {
			suffix = c
		}
	}
	for i := range lo.tg.Jobs {
		wr, chain := rank[i], int64(0)
		for _, p := range lo.tg.Pred[i] {
			if dm.wr[p] > wr {
				wr = dm.wr[p]
			}
			if dm.chain[p] > chain {
				chain = dm.chain[p]
			}
		}
		dm.wr[i] = wr
		dm.chain[i] = chain + 1
	}
	return dm
}

// rtaTicks iterates the response-time refinement: starting from the
// Graham bound with total volume, each round keeps only the work arriving
// strictly before the job's current completion bound. Every iterate is a
// valid bound (work arriving at or after the completion instant cannot
// occupy a processor before it), so stopping early — the iteration is
// monotone non-increasing and capped — stays sound.
func rtaTicks(lo *lowering, volume int64, g []int64, m int) ([]int64, bool) {
	n := len(lo.tg.Jobs)
	// Prefix sums follow the arrival order, not the job order, so pair
	// each sorted arrival with its WCET first.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return lo.Arrival[order[x]] < lo.Arrival[order[y]] })
	arrivals := make([]int64, n)
	prefix := make([]int64, n+1)
	for k, i := range order {
		arrivals[k] = lo.Arrival[i]
		prefix[k+1] = prefix[k] + lo.WCET[i]
	}
	// volBefore(s) = Σ C_j over jobs arriving strictly before the
	// completion bound s/m, i.e. with m·A_j < s — exact, no tick
	// rounding, so the exact-rational test oracle computes the same filter.
	volBefore := func(s int64) int64 {
		k := sort.Search(n, func(k int) bool { return int64(m)*arrivals[k] >= s })
		return prefix[k]
	}
	out := make([]int64, n)
	for i := range out {
		s, ok := rational.AddOK(g[i], volume)
		if !ok {
			return nil, false
		}
		for iter := 0; iter < 64; iter++ {
			s2, ok := rational.AddOK(g[i], volBefore(s))
			if !ok {
				return nil, false
			}
			if s2 >= s {
				break
			}
			s = s2
		}
		out[i] = s
	}
	return out, true
}

package feas

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/parallel"
	"repro/internal/rational"
	"repro/internal/taskgraph"
)

// lowering is the task graph on its integer timescale: the tick table
// (arrivals, WCETs and deadlines) plus the precedence-adjusted ASAP start
// and ALAP completion ticks.
type lowering struct {
	tg      *taskgraph.TaskGraph
	scale   rational.Scale
	a, c, d []int64
	// asap[i] is the earliest start max(A_i, max_p asap_p + C_p);
	// alap[i] the latest completion min(D_i, min_s alap_s − C_s).
	asap, alap []int64
	// hasZero reports a zero-WCET job, which defeats the work-conserving
	// busy-interval argument behind the chain bounds.
	hasZero bool
}

// lower reads the task graph's tick table (TaskGraph.Ticks); the error is
// the graph's *taskgraph.TimescaleError when its timing does not fit.
func lower(tg *taskgraph.TaskGraph) (*lowering, error) {
	jt, err := tg.Ticks()
	if err != nil {
		return nil, fmt.Errorf("feas: %w", err)
	}
	n := len(tg.Jobs)
	lo := &lowering{tg: tg, scale: jt.Scale, a: jt.Arrival, c: jt.WCET, d: jt.Deadline}
	for _, c := range lo.c {
		if c == 0 {
			lo.hasZero = true
		}
	}
	// ASAP / ALAP on ticks; job index order is topological.
	lo.asap = make([]int64, n)
	for i := range tg.Jobs {
		t := lo.a[i]
		for _, p := range tg.Pred[i] {
			if e := lo.asap[p] + lo.c[p]; e > t {
				t = e
			}
		}
		lo.asap[i] = t
	}
	lo.alap = make([]int64, n)
	for i := n - 1; i >= 0; i-- {
		t := lo.d[i]
		for _, s := range tg.Succ[i] {
			if e := lo.alap[s] - lo.c[s]; e < t {
				t = e
			}
		}
		lo.alap[i] = t
	}
	return lo, nil
}

// ceilDiv returns ⌈a/b⌉ for a >= 0, b > 0.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 {
		q++
	}
	return q
}

// fracLess reports n1/d1 < n2/d2 for non-negative numerators and positive
// denominators, exactly, via 128-bit cross multiplication.
func fracLess(n1, d1, n2, d2 int64) bool {
	h1, l1 := bits.Mul64(uint64(n1), uint64(d2))
	h2, l2 := bits.Mul64(uint64(n2), uint64(d1))
	if h1 != h2 {
		return h1 < h2
	}
	return l1 < l2
}

// workTicks carries the workload extraction plus the integer load
// fraction the tests reuse.
type workTicks struct {
	w Workload
	// volume is Σ C_i in ticks.
	volume int64
	// loadNum/loadDen is the corner-sweep maximum demand/length fraction
	// (0/1 when no window has positive demand).
	loadNum, loadDen int64
	// lb is ⌈load⌉, clamped to 1 for non-empty graphs.
	lb int
}

// workloadTicks extracts volume, span and the corner-sweep load with its
// witness window on the integer timescale.
func workloadTicks(lo *lowering) workTicks {
	tg := lo.tg
	n := len(tg.Jobs)
	wt := workTicks{loadDen: 1}
	wt.w = Workload{Jobs: n, Hyperperiod: tg.Hyperperiod}
	if n == 0 {
		wt.w.Volume = rational.Zero
		wt.w.Span = rational.Zero
		wt.w.Load = rational.Zero
		return wt
	}
	var volume int64
	for _, c := range lo.c {
		volume += c
	}
	wt.volume = volume
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
		span[i] = t + lo.c[i]
		if span[i] > best {
			best = span[i]
		}
	}
	wt.w.Volume = lo.scale.FromTicks(volume)
	wt.w.Span = lo.scale.FromTicks(best)
	for i, j := range tg.Jobs {
		if lo.asap[i]+lo.c[i] > lo.alap[i] {
			wt.w.violations = append(wt.w.violations, Bound{
				Job:      j.Name(),
				Proc:     j.Proc,
				Complete: lo.scale.FromTicks(lo.asap[i] + lo.c[i]),
				Deadline: lo.scale.FromTicks(lo.alap[i]),
			})
		}
	}

	// Corner sweep over distinct (ASAP, ALAP) values: jobs join their
	// deadline bucket once the descending-start scan passes their ASAP,
	// so bucket prefix sums over ALAP <= t2 equal demand(t1, t2) exactly
	// (the staticflow.Demand scan, on ticks).
	t1s := distinctTicks(lo.asap)
	t2s := distinctTicks(lo.alap)
	bucketOf := make([]int, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
		bucketOf[i] = sort.Search(len(t2s), func(k int) bool { return t2s[k] >= lo.alap[i] })
	}
	sort.Slice(order, func(x, y int) bool {
		ax, ay := lo.asap[order[x]], lo.asap[order[y]]
		if ax != ay {
			return ax > ay // descending ASAP
		}
		return order[x] < order[y]
	})
	buckets := make([]int64, len(t2s))
	next := 0
	for i1 := len(t1s) - 1; i1 >= 0; i1-- {
		t1 := t1s[i1]
		for next < n && lo.asap[order[next]] >= t1 {
			j := order[next]
			buckets[bucketOf[j]] += lo.c[j]
			next++
		}
		cum := int64(0)
		for i2, t2 := range t2s {
			cum += buckets[i2]
			if t1 >= t2 || cum <= 0 {
				continue
			}
			length := t2 - t1
			if fracLess(wt.loadNum, wt.loadDen, cum, length) {
				wt.loadNum, wt.loadDen = cum, length
				wt.w.critical = Interval{
					Start:  lo.scale.FromTicks(t1),
					End:    lo.scale.FromTicks(t2),
					Demand: lo.scale.FromTicks(cum),
				}
				wt.w.hasCritical = true
			}
		}
	}
	wt.w.Load = rational.New(wt.loadNum, wt.loadDen)
	wt.lb = int(ceilDiv(wt.loadNum, wt.loadDen))
	if wt.lb < 1 {
		wt.lb = 1
	}
	return wt
}

func distinctTicks(vals []int64) []int64 {
	out := append([]int64(nil), vals...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	k := 0
	for i, v := range out {
		if i == 0 || v != out[k-1] {
			out[k] = v
			k++
		}
	}
	return out[:k]
}

// analyzeTicks runs the workload extraction and every test on the integer
// timescale. Each test owns one result slot, so the report is identical
// for every worker count.
func analyzeTicks(lo *lowering, m int, opts Options) *Report {
	wt := workloadTicks(lo)
	rep := &Report{M: m, Workload: wt.w, Results: make([]Result, len(Tests))}
	_ = parallel.ForEach(nil, len(Tests), opts.Workers, func(i int) error {
		rep.Results[i] = runTestTicks(lo, wt, Tests[i], m, opts)
		return nil
	})
	return rep
}

// runTestTicks evaluates one test: the shared necessary conditions first
// (window fit, load criterion — both valid even under preemption, so an
// Infeasible verdict implies sched.MinProcessors > m), then the test's
// sufficient bound. Chain bounds that exceed a deadline yield Unknown,
// never Infeasible.
func runTestTicks(lo *lowering, wt workTicks, t Test, m int, opts Options) Result {
	res := Result{Test: t, M: m}
	n := len(lo.tg.Jobs)
	if n == 0 {
		res.Verdict = Feasible
		res.Certified = true
		res.Reason = "empty frame: no jobs to schedule"
		return res
	}
	// Necessary: every job must fit its precedence-adjusted window.
	if v := wt.w.WindowViolations(); len(v) > 0 {
		res.Verdict = Infeasible
		res.worst, res.hasWorst = v[0], true
		res.Reason = fmt.Sprintf(
			"job %s cannot fit its window on any processor count: earliest completion %v exceeds latest allowed %v",
			v[0].Job, v[0].Complete, v[0].Deadline)
		return res
	}
	// Necessary: the corner-window demand criterion at m processors.
	if wt.lb > m {
		res.Verdict = Infeasible
		res.witness, res.hasWitness = wt.w.critical, wt.w.hasCritical
		res.Reason = fmt.Sprintf(
			"window [%v, %v] holds demand %v: load %v forces at least %d processors, have %d",
			res.witness.Start, res.witness.End, res.witness.Demand, wt.w.Load, wt.lb, m)
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
			"single-processor demand criterion is exact: load %v <= 1 under EDF on modified windows", wt.w.Load)
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
			return rational.AddOK(g[i], wt.volume)
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
		s, ok := rtaTicks(lo, wt, g, m, opts)
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
		base, ok := rational.MulOK(int64(m), lo.a[i])
		if !ok {
			return nil, false
		}
		for _, p := range lo.tg.Pred[i] {
			if g[p] > base {
				base = g[p]
			}
		}
		step, ok := rational.MulOK(int64(m-1), lo.c[i])
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
		slack := int64(m)*lo.d[i] - b
		if worst < 0 || slack < worstSlack {
			worst, worstSlack = i, slack
		}
	}
	res.worst = Bound{
		Job:      lo.tg.Jobs[worst].Name(),
		Proc:     lo.tg.Jobs[worst].Proc,
		Complete: lo.scale.FromTicks(mustBound(bound, worst)).DivInt(int64(m)),
		Deadline: lo.scale.FromTicks(lo.d[worst]),
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
		kx, ky := lo.d[idx[x]]-lo.a[idx[x]], lo.d[idx[y]]-lo.a[idx[y]]
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
		acc += lo.c[i]
		dm.hpvol[r] = acc
	}
	suffix := int64(0)
	for r := n - 1; r >= 0; r-- {
		dm.blockMax[r] = suffix
		if c := lo.c[idx[r]]; c > suffix {
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
func rtaTicks(lo *lowering, wt workTicks, g []int64, m int, opts Options) ([]int64, bool) {
	n := len(lo.tg.Jobs)
	// Prefix sums follow the arrival order, not the job order, so pair
	// each sorted arrival with its WCET first.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return lo.a[order[x]] < lo.a[order[y]] })
	arrivals := make([]int64, n)
	prefix := make([]int64, n+1)
	for k, i := range order {
		arrivals[k] = lo.a[i]
		prefix[k+1] = prefix[k] + lo.c[i]
	}
	// volBefore(s) = Σ C_j over jobs arriving strictly before the
	// completion bound s/m, i.e. with m·A_j < s — exact, no tick
	// rounding, so the exact-rational test oracle computes the same filter.
	volBefore := func(s int64) int64 {
		k := sort.Search(n, func(k int) bool { return int64(m)*arrivals[k] >= s })
		return prefix[k]
	}
	out := make([]int64, n)
	overflow := make([]bool, n)
	_ = parallel.ForEach(nil, n, opts.Workers, func(i int) error {
		s, ok := rational.AddOK(g[i], wt.volume)
		if !ok {
			overflow[i] = true
			return nil
		}
		for iter := 0; iter < 64; iter++ {
			s2, ok := rational.AddOK(g[i], volBefore(s))
			if !ok {
				overflow[i] = true
				return nil
			}
			if s2 >= s {
				break
			}
			s = s2
		}
		out[i] = s
		return nil
	})
	for _, bad := range overflow {
		if bad {
			return nil, false
		}
	}
	return out, true
}

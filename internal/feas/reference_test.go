package feas

import (
	"fmt"
	"sort"

	"repro/internal/parallel"
	"repro/internal/rational"
	"repro/internal/taskgraph"
)

// The reference oracle mirrors the tick path in exact rational
// arithmetic: the reports — verdicts, witnesses, bounds and reason strings
// — must be identical (TestTickMatchesReference pins this).

// refGraph bundles the rational per-job data every reference test shares.
type refGraph struct {
	tg         *taskgraph.TaskGraph
	asap, alap []Time
	hasZero    bool
}

func newRefGraph(tg *taskgraph.TaskGraph) *refGraph {
	rg := &refGraph{tg: tg, asap: tg.ASAP(), alap: tg.ALAP()}
	for _, j := range tg.Jobs {
		if j.WCET.IsZero() {
			rg.hasZero = true
		}
	}
	return rg
}

// refWork mirrors workTicks: volume, span and the corner-sweep load with
// its witness, plus ⌈load⌉.
type refWork struct {
	w      Workload
	volume Time
	lb     int
}

func workloadReference(rg *refGraph) refWork {
	tg := rg.tg
	n := len(tg.Jobs)
	rw := refWork{}
	rw.w = Workload{Jobs: n, Hyperperiod: tg.Hyperperiod}
	rw.w.Volume = rational.Zero
	rw.w.Span = rational.Zero
	rw.w.Load = rational.Zero
	rw.volume = rational.Zero
	if n == 0 {
		return rw
	}
	for _, j := range tg.Jobs {
		rw.volume = rw.volume.Add(j.WCET)
	}
	span := make([]Time, n)
	best := rational.Zero
	for i := n - 1; i >= 0; i-- {
		t := rational.Zero
		for _, s := range tg.Succ[i] {
			if t.Less(span[s]) {
				t = span[s]
			}
		}
		span[i] = t.Add(tg.Jobs[i].WCET)
		if best.Less(span[i]) {
			best = span[i]
		}
	}
	rw.w.Volume = rw.volume
	rw.w.Span = best
	for i, j := range tg.Jobs {
		if done := rg.asap[i].Add(j.WCET); rg.alap[i].Less(done) {
			rw.w.violations = append(rw.w.violations, Bound{
				Job:      j.Name(),
				Proc:     j.Proc,
				Complete: done,
				Deadline: rg.alap[i],
			})
		}
	}

	// Corner sweep over distinct (ASAP, ALAP) values in the same scan
	// order as the tick path: t1 descending, t2 ascending, strict
	// improvement only — so both paths elect the same witness.
	t1s := distinctRats(rg.asap)
	t2s := distinctRats(rg.alap)
	bucketOf := make([]int, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
		bucketOf[i] = searchRat(t2s, rg.alap[i])
	}
	sort.Slice(order, func(x, y int) bool {
		ax, ay := rg.asap[order[x]], rg.asap[order[y]]
		if !ax.Equal(ay) {
			return ay.Less(ax) // descending ASAP
		}
		return order[x] < order[y]
	})
	buckets := make([]Time, len(t2s))
	for i := range buckets {
		buckets[i] = rational.Zero
	}
	next := 0
	for i1 := len(t1s) - 1; i1 >= 0; i1-- {
		t1 := t1s[i1]
		for next < n && !rg.asap[order[next]].Less(t1) {
			j := order[next]
			buckets[bucketOf[j]] = buckets[bucketOf[j]].Add(tg.Jobs[j].WCET)
			next++
		}
		cum := rational.Zero
		for i2, t2 := range t2s {
			cum = cum.Add(buckets[i2])
			if !t1.Less(t2) || cum.Sign() <= 0 {
				continue
			}
			ratio := cum.Div(t2.Sub(t1))
			if rw.w.Load.Less(ratio) {
				rw.w.Load = ratio
				rw.w.critical = Interval{Start: t1, End: t2, Demand: cum}
				rw.w.hasCritical = true
			}
		}
	}
	rw.lb = int(rw.w.Load.Ceil())
	if rw.lb < 1 {
		rw.lb = 1
	}
	return rw
}

func distinctRats(ts []Time) []Time {
	out := append([]Time(nil), ts...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	k := 0
	for i, t := range out {
		if i == 0 || !t.Equal(out[k-1]) {
			out[k] = t
			k++
		}
	}
	return out[:k]
}

// searchRat returns the smallest index with sorted[i] >= t (or len).
func searchRat(sorted []Time, t Time) int {
	return sort.Search(len(sorted), func(i int) bool { return !sorted[i].Less(t) })
}

// analyzeReference runs the workload extraction and every test in exact
// rational arithmetic, mirroring analyzeTicks slot for slot.
func analyzeReference(tg *taskgraph.TaskGraph, m int, opts Options) *Report {
	rg := newRefGraph(tg)
	rw := workloadReference(rg)
	rep := &Report{M: m, Workload: rw.w, Results: make([]Result, len(Tests))}
	_ = parallel.ForEach(nil, len(Tests), opts.Workers, func(i int) error {
		rep.Results[i] = runTestReference(rg, rw, Tests[i], m, opts)
		return nil
	})
	return rep
}

// runTestReference mirrors runTestTicks in rational arithmetic; overflow
// branches do not exist here because rational operations panic instead.
func runTestReference(rg *refGraph, rw refWork, t Test, m int, opts Options) Result {
	res := Result{Test: t, M: m}
	tg := rg.tg
	n := len(tg.Jobs)
	if n == 0 {
		res.Verdict = Feasible
		res.Certified = true
		res.Reason = "empty frame: no jobs to schedule"
		return res
	}
	if v := rw.w.WindowViolations(); len(v) > 0 {
		res.Verdict = Infeasible
		res.worst, res.hasWorst = v[0], true
		res.Reason = fmt.Sprintf(
			"job %s cannot fit its window on any processor count: earliest completion %v exceeds latest allowed %v",
			v[0].Job, v[0].Complete, v[0].Deadline)
		return res
	}
	if rw.lb > m {
		res.Verdict = Infeasible
		res.witness, res.hasWitness = rw.w.critical, rw.w.hasCritical
		res.Reason = fmt.Sprintf(
			"window [%v, %v] holds demand %v: load %v forces at least %d processors, have %d",
			res.witness.Start, res.witness.End, res.witness.Demand, rw.w.Load, rw.lb, m)
		return res
	}
	if t == EDF && m == 1 {
		res.Verdict = Feasible
		res.Reason = fmt.Sprintf(
			"single-processor demand criterion is exact: load %v <= 1 under EDF on modified windows", rw.w.Load)
		return res
	}
	if m >= n {
		res.Verdict = Feasible
		res.Certified = !rg.hasZero
		res.Reason = fmt.Sprintf("%d processors for %d jobs: the ASAP schedule needs no contention", m, n)
		return res
	}
	if rg.hasZero {
		res.Verdict = Unknown
		res.Reason = "zero-WCET job defeats the work-conserving busy-interval argument; only necessary conditions apply"
		return res
	}
	g := grahamReference(rg, m)
	switch t {
	case EDF:
		boundReference(rg, m, &res, func(i int) Time {
			return g[i].Add(rw.volume)
		}, "Graham chain bound with total volume")
	case DM:
		dm := dmReference(rg)
		boundReference(rg, m, &res, func(i int) Time {
			blk := dm.blockMax[dm.wr[i]].MulInt(int64(m) * dm.chain[i])
			return g[i].Add(dm.hpvol[dm.wr[i]]).Add(blk)
		}, "deadline-monotonic chain bound with rank-filtered interference")
	case RTA:
		s := rtaReference(rg, rw, g, m, opts)
		boundReference(rg, m, &res, func(i int) Time {
			return s[i]
		}, "response-time iteration with arrival-filtered interference")
	}
	return res
}

// grahamReference mirrors grahamTicks: g_i = max(m·A_i, max_p g_p) +
// (m−1)·C_i in exact arithmetic.
func grahamReference(rg *refGraph, m int) []Time {
	n := len(rg.tg.Jobs)
	g := make([]Time, n)
	for i, j := range rg.tg.Jobs {
		base := j.Arrival.MulInt(int64(m))
		for _, p := range rg.tg.Pred[i] {
			if base.Less(g[p]) {
				base = g[p]
			}
		}
		g[i] = base.Add(j.WCET.MulInt(int64(m - 1)))
	}
	return g
}

// boundReference mirrors boundTicks: the m-scaled bound must stay within
// m·D_i everywhere; the minimum-slack job (lowest index on ties) becomes
// the Worst record.
func boundReference(rg *refGraph, m int, res *Result, bound func(i int) Time, how string) {
	n := len(rg.tg.Jobs)
	worst, worstSlack := -1, rational.Zero
	for i := 0; i < n; i++ {
		slack := rg.tg.Jobs[i].Deadline.MulInt(int64(m)).Sub(bound(i))
		if worst < 0 || slack.Less(worstSlack) {
			worst, worstSlack = i, slack
		}
	}
	res.worst = Bound{
		Job:      rg.tg.Jobs[worst].Name(),
		Proc:     rg.tg.Jobs[worst].Proc,
		Complete: bound(worst).DivInt(int64(m)),
		Deadline: rg.tg.Jobs[worst].Deadline,
	}
	res.hasWorst = true
	if worstSlack.Sign() >= 0 {
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

// refDM mirrors dmData in rational volumes.
type refDM struct {
	hpvol    []Time
	wr       []int
	chain    []int64
	blockMax []Time
}

func dmReference(rg *refGraph) refDM {
	tg := rg.tg
	n := len(tg.Jobs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rel := func(i int) Time { return tg.Jobs[i].Deadline.Sub(tg.Jobs[i].Arrival) }
	sort.SliceStable(idx, func(x, y int) bool {
		kx, ky := rel(idx[x]), rel(idx[y])
		if !kx.Equal(ky) {
			return kx.Less(ky)
		}
		return idx[x] < idx[y]
	})
	rank := make([]int, n)
	for r, i := range idx {
		rank[i] = r
	}
	dm := refDM{
		hpvol:    make([]Time, n),
		wr:       make([]int, n),
		chain:    make([]int64, n),
		blockMax: make([]Time, n),
	}
	acc := rational.Zero
	for r, i := range idx {
		acc = acc.Add(tg.Jobs[i].WCET)
		dm.hpvol[r] = acc
	}
	suffix := rational.Zero
	for r := n - 1; r >= 0; r-- {
		dm.blockMax[r] = suffix
		if c := tg.Jobs[idx[r]].WCET; suffix.Less(c) {
			suffix = c
		}
	}
	for i := range tg.Jobs {
		wr, chain := rank[i], int64(0)
		for _, p := range tg.Pred[i] {
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

// rtaReference mirrors rtaTicks: the same m·A_j < s arrival filter, the
// same 64-round cap, in exact arithmetic.
func rtaReference(rg *refGraph, rw refWork, g []Time, m int, opts Options) []Time {
	tg := rg.tg
	n := len(tg.Jobs)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return tg.Jobs[order[x]].Arrival.Less(tg.Jobs[order[y]].Arrival)
	})
	scaled := make([]Time, n)
	prefix := make([]Time, n+1)
	prefix[0] = rational.Zero
	for k, i := range order {
		scaled[k] = tg.Jobs[i].Arrival.MulInt(int64(m))
		prefix[k+1] = prefix[k].Add(tg.Jobs[i].WCET)
	}
	volBefore := func(s Time) Time {
		k := sort.Search(n, func(k int) bool { return !scaled[k].Less(s) })
		return prefix[k]
	}
	out := make([]Time, n)
	_ = parallel.ForEach(nil, n, opts.Workers, func(i int) error {
		s := g[i].Add(rw.volume)
		for iter := 0; iter < 64; iter++ {
			s2 := g[i].Add(volBefore(s))
			if !s2.Less(s) {
				break
			}
			s = s2
		}
		out[i] = s
		return nil
	})
	return out
}

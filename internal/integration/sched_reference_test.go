package integration

// The exact-rational list scheduler and feasibility checker: the
// pre-integer-timescale implementations of sched.ListSchedule and
// Schedule.Validate, kept as differential oracles. At every decision
// instant the reference rescans every job for readiness, re-sorts the
// ready list and linearly scans for the next event, all in exact rational
// arithmetic. The event-driven engine must reproduce its output —
// identical processor assignments, start times and tie-breaks — on every
// input (sched_differential_test.go, sched_fuzz_test.go).

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/apps/fms"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// refSchedule is a static schedule in the reference's exact-rational
// form: processor µ_i and start time s_i per job.
type refSchedule struct {
	tg     *taskgraph.TaskGraph
	m      int
	procs  []int
	starts []rational.Rat
}

// end is the completion time s_i + C_i of job i.
func (r *refSchedule) end(i int) rational.Rat { return r.starts[i].Add(r.tg.Jobs[i].WCET) }

// refOf reads a tick schedule's placements as rationals.
func refOf(s *sched.Schedule) *refSchedule {
	r := &refSchedule{tg: s.TG, m: s.M, procs: make([]int, len(s.Assign)), starts: make([]rational.Rat, len(s.Assign))}
	for i, a := range s.Assign {
		r.procs[i], r.starts[i] = a.Proc, s.StartTime(i)
	}
	return r
}

// matchesRef reports whether the tick schedule s places every job where
// the reference r does.
func matchesRef(s *sched.Schedule, r *refSchedule) bool {
	if s.M != r.m || len(s.Assign) != len(r.procs) {
		return false
	}
	for i, a := range s.Assign {
		if a.Proc != r.procs[i] || !s.StartTime(i).Equal(r.starts[i]) {
			return false
		}
	}
	return true
}

// listScheduleReference runs the list-scheduling simulation: at every
// decision instant, each idle processor picks the highest-SP job that has
// arrived and whose task-graph predecessors have all completed.
func listScheduleReference(tg *taskgraph.TaskGraph, m int, h sched.Heuristic) (*refSchedule, error) {
	if m < 1 {
		return nil, fmt.Errorf("sched: %d processors", m)
	}
	n := len(tg.Jobs)
	rank := priorities(tg, h)

	procFree := make([]rational.Rat, m)
	finish := make([]rational.Rat, n)
	started := make([]bool, n)
	r := &refSchedule{tg: tg, m: m, procs: make([]int, n), starts: make([]rational.Rat, n)}

	t := rational.Zero
	scheduled := 0
	for scheduled < n {
		// Jobs ready at time t: arrived, not yet placed, and with every
		// task-graph predecessor completed by t (the list-scheduling
		// extension of the classic readiness condition).
		var ready []int
		for i, j := range tg.Jobs {
			if started[i] || t.Less(j.Arrival) {
				continue
			}
			ok := true
			for _, p := range tg.Pred[i] {
				if !started[p] || t.Less(finish[p]) {
					ok = false
					break
				}
			}
			if ok {
				ready = append(ready, i)
			}
		}
		sort.Slice(ready, func(a, b int) bool { return rank[ready[a]] < rank[ready[b]] })

		// Idle processors at time t, earliest-free first.
		var idle []int
		for p := range procFree {
			if procFree[p].LessEq(t) {
				idle = append(idle, p)
			}
		}

		for len(idle) > 0 && len(ready) > 0 {
			i := ready[0]
			ready = ready[1:]
			p := idle[0]
			idle = idle[1:]
			r.procs[i], r.starts[i] = p, t
			started[i] = true
			finish[i] = t.Add(tg.Jobs[i].WCET)
			procFree[p] = finish[i]
			scheduled++
		}

		if scheduled == n {
			break
		}

		// Advance to the next decision instant: the earliest future
		// event among processor releases, job arrivals, and
		// predecessor completions.
		next := rational.Rat{}
		haveNext := false
		consider := func(c rational.Rat) {
			if t.Less(c) && (!haveNext || c.Less(next)) {
				next = c
				haveNext = true
			}
		}
		for p := range procFree {
			consider(procFree[p])
		}
		for i, j := range tg.Jobs {
			if !started[i] {
				consider(j.Arrival)
			} else {
				consider(finish[i])
			}
		}
		if !haveNext {
			return nil, fmt.Errorf("sched: scheduler stalled at %v with %d/%d jobs placed", t, scheduled, n)
		}
		t = next
	}
	return r, nil
}

// validateReference checks the feasibility constraints of Definition 3.2
// in rational arithmetic — the pre-integer-timescale implementation of
// Schedule.Validate.
func validateReference(s *refSchedule) error {
	tg := s.tg
	if len(s.procs) != len(tg.Jobs) {
		return fmt.Errorf("sched: %d assignments for %d jobs", len(s.procs), len(tg.Jobs))
	}
	for i, j := range tg.Jobs {
		if p := s.procs[i]; p < 0 || p >= s.m {
			return fmt.Errorf("sched: job %s mapped to processor %d of %d", j.Name(), p, s.m)
		}
		if s.starts[i].Less(j.Arrival) {
			return fmt.Errorf("sched: job %s starts at %v before arrival %v", j.Name(), s.starts[i], j.Arrival)
		}
		if j.Deadline.Less(s.end(i)) {
			return fmt.Errorf("sched: job %s misses deadline: ends %v > %v", j.Name(), s.end(i), j.Deadline)
		}
	}
	for _, e := range tg.Edges() {
		if s.starts[e[1]].Less(s.end(e[0])) {
			return fmt.Errorf("sched: precedence %s -> %s violated",
				tg.Jobs[e[0]].Name(), tg.Jobs[e[1]].Name())
		}
	}
	// Mutual exclusion per processor.
	for p, jobs := range s.processorOrder() {
		for i := 1; i < len(jobs); i++ {
			prev, cur := jobs[i-1], jobs[i]
			if s.starts[cur].Less(s.end(prev)) {
				return fmt.Errorf("sched: jobs %s and %s overlap on processor %d",
					tg.Jobs[prev].Name(), tg.Jobs[cur].Name(), p)
			}
		}
	}
	return nil
}

// processorOrder sorts each processor's jobs by rational start time, ties
// by job index.
func (s *refSchedule) processorOrder() [][]int {
	byProc := make([][]int, s.m)
	for i, p := range s.procs {
		byProc[p] = append(byProc[p], i)
	}
	for _, jobs := range byProc {
		sort.SliceStable(jobs, func(a, b int) bool { return s.starts[jobs[a]].Less(s.starts[jobs[b]]) })
	}
	return byProc
}

// priorities computes the SP rank of every job (lower = scheduled first).
func priorities(tg *taskgraph.TaskGraph, h sched.Heuristic) []int {
	n := len(tg.Jobs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var key func(i int) rational.Rat
	switch h {
	case sched.ALAPEDF:
		alap := refALAP(tg)
		key = func(i int) rational.Rat { return alap[i] }
	case sched.BLevel:
		bl := blevels(tg)
		key = func(i int) rational.Rat { return bl[i].Neg() } // longer path first
	case sched.DeadlineMonotonic:
		key = func(i int) rational.Rat { return tg.Jobs[i].Deadline.Sub(tg.Jobs[i].Arrival) }
	case sched.EDF:
		key = func(i int) rational.Rat { return tg.Jobs[i].Deadline }
	default:
		panic(fmt.Sprintf("sched: unknown heuristic %d", int(h)))
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := key(idx[a]), key(idx[b])
		if !ka.Equal(kb) {
			return ka.Less(kb)
		}
		return idx[a] < idx[b] // <_J order breaks ties
	})
	rank := make([]int, n)
	for r, i := range idx {
		rank[i] = r
	}
	return rank
}

// blevels returns, for every job, the length of the longest WCET chain
// starting at (and including) the job.
func blevels(tg *taskgraph.TaskGraph) []rational.Rat {
	n := len(tg.Jobs)
	bl := make([]rational.Rat, n)
	for i := n - 1; i >= 0; i-- {
		best := rational.Zero
		for _, s := range tg.Succ[i] {
			if best.Less(bl[s]) {
				best = bl[s]
			}
		}
		bl[i] = tg.Jobs[i].WCET.Add(best)
	}
	return bl
}

// BenchmarkFig7FMSScheduleReference pins the cost of the pre-event-driven
// scheduler (rational rescan loop + rational feasibility check) on the
// 812-job FMS frame, so the EXPERIMENTS.md before/after table against
// BenchmarkFig7FMSSchedule can be reproduced.
func BenchmarkFig7FMSScheduleReference(b *testing.B) {
	tg, err := taskgraph.Derive(fms.New())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := listScheduleReference(tg, 1, sched.ALAPEDF)
		if err != nil {
			b.Fatal(err)
		}
		if err := validateReference(s); err != nil {
			b.Fatal(err)
		}
	}
}

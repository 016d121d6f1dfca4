// Package sched implements the compile-time scheduling algorithm of
// Section III-B of the DATE 2015 FPPN paper: non-preemptive list scheduling
// of a derived task graph on M identical processors, driven by a heuristic
// schedule priority SP (not to be confused with the functional priority FP
// that defines the precedence edges).
//
// The result is a static schedule — a mapping µ_i and start time s_i for
// every job — repeated every hyperperiod as a periodic frame. Feasibility
// (Definition 3.2: arrival, deadline, precedence and mutual-exclusion
// constraints) is checked by Schedule.Validate.
package sched

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/rational"
	"repro/internal/taskgraph"
)

// Time aliases the exact rational time type.
type Time = rational.Rat

// Heuristic selects the schedule-priority order SP used by the list
// scheduler. The paper notes EDF adjusted to ALAP deadlines, b-level, and
// modified-deadline-monotonic variants.
type Heuristic int

const (
	// ALAPEDF orders jobs by ALAP completion time D'_i — EDF with the
	// nominal deadlines replaced by the precedence-adjusted ones. This is
	// the paper's default.
	ALAPEDF Heuristic = iota
	// BLevel orders jobs by decreasing b-level (longest WCET path from
	// the job to a sink, inclusive), the classic static list-scheduling
	// priority from Kwok & Ahmad's survey.
	BLevel
	// DeadlineMonotonic orders jobs by relative deadline D_i − A_i.
	DeadlineMonotonic
	// EDF orders jobs by the nominal (unadjusted) absolute deadline D_i.
	EDF
)

// String names the heuristic.
func (h Heuristic) String() string {
	switch h {
	case ALAPEDF:
		return "alap-edf"
	case BLevel:
		return "b-level"
	case DeadlineMonotonic:
		return "deadline-monotonic"
	case EDF:
		return "edf"
	default:
		return fmt.Sprintf("Heuristic(%d)", int(h))
	}
}

// Heuristics lists all implemented heuristics in preference order.
var Heuristics = []Heuristic{ALAPEDF, BLevel, DeadlineMonotonic, EDF}

// Assignment is one job's placement: processor µ_i and start time s_i in
// ticks of the schedule's tick table (Schedule.Ticks).
type Assignment struct {
	Proc  int
	Start int64
}

// Schedule is a static schedule for a task graph on M processors.
type Schedule struct {
	TG *taskgraph.TaskGraph
	M  int
	// Assign is indexed by job index.
	Assign []Assignment
	// Heuristic records which SP produced the schedule.
	Heuristic Heuristic
	// ticks is the refined tick table of a schedule built by FromStarts
	// whose starts lie between the graph's ticks; nil means TG.Ticks().
	ticks *taskgraph.JobTicks
}

// FromStarts builds a schedule from one processor and one rational start
// time per job. Starts on the task graph's timescale count in ticks of
// TG.Ticks(); a start between its ticks refines the schedule's table to
// the coarsest timescale that holds every start (TG.TicksWithStarts). The
// error names the first job with a value beyond the rational.MaxTick
// guard on that refinement.
func FromStarts(tg *taskgraph.TaskGraph, m int, h Heuristic, procs []int, starts []Time) (*Schedule, error) {
	n := len(tg.Jobs)
	if len(procs) != n || len(starts) != n {
		return nil, fmt.Errorf("sched: %d assignments for %d jobs", min(len(procs), len(starts)), n)
	}
	jt, startT, err := tg.TicksWithStarts(starts)
	if err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	s := &Schedule{TG: tg, M: m, Assign: make([]Assignment, n), Heuristic: h}
	if base, _ := tg.Ticks(); jt.Scale != base.Scale {
		s.ticks = jt
	}
	for i := range s.Assign {
		s.Assign[i] = Assignment{Proc: procs[i], Start: startT[i]}
	}
	return s, nil
}

// Ticks returns the tick table the starts count on: the refined table of
// an off-grid schedule from FromStarts, else the task graph's own.
func (s *Schedule) Ticks() (*taskgraph.JobTicks, error) {
	if s.ticks != nil {
		return s.ticks, nil
	}
	jt, err := s.TG.Ticks()
	if err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	return jt, nil
}

// table is Ticks for the accessors below. Only a hand-built graph whose
// timing fits no timescale has no table; its starts cannot be ticks, and
// every accessor but Validate panics on it.
func (s *Schedule) table() *taskgraph.JobTicks {
	jt, err := s.Ticks()
	if err != nil {
		panic(err)
	}
	return jt
}

// StartTime returns the start time s_i of job i.
func (s *Schedule) StartTime(i int) Time {
	return s.table().Scale.FromTicks(s.Assign[i].Start)
}

// End returns the completion time e_i = s_i + C_i of job i.
func (s *Schedule) End(i int) Time {
	jt := s.table()
	return jt.Scale.FromTicks(s.Assign[i].Start + jt.WCET[i])
}

// Miss describes a deadline violation in a static schedule.
type Miss struct {
	Job      *taskgraph.Job
	End      Time
	Deadline Time
}

func (m Miss) String() string {
	return fmt.Sprintf("%s completes at %v after deadline %v", m.Job.Name(), m.End, m.Deadline)
}

// Misses returns all deadline violations, in job order.
func (s *Schedule) Misses() []Miss {
	jt := s.table()
	var out []Miss
	for i, j := range s.TG.Jobs {
		if s.Assign[i].Start+jt.WCET[i] > jt.Deadline[i] {
			out = append(out, Miss{Job: j, End: s.End(i), Deadline: j.Deadline})
		}
	}
	return out
}

// Validate checks the feasibility constraints of Definition 3.2:
//
//	arrival:          s_i >= A_i
//	deadline:         e_i <= D_i
//	precedence:       (J_i, J_j) ∈ E ⇒ e_i <= s_j
//	mutual exclusion: µ_i = µ_j ⇒ e_i <= s_j ∨ e_j <= s_i
//
// The checks are int64 comparisons on the schedule's tick table: the task
// graph's integer timescale (TaskGraph.Ticks), or for a schedule built by
// FromStarts with starts between its ticks, the refinement holding them.
func (s *Schedule) Validate() error {
	tg := s.TG
	if len(s.Assign) != len(tg.Jobs) {
		return fmt.Errorf("sched: %d assignments for %d jobs", len(s.Assign), len(tg.Jobs))
	}
	jt, err := s.Ticks()
	if err != nil {
		return err
	}
	for i, j := range tg.Jobs {
		a := s.Assign[i]
		if a.Proc < 0 || a.Proc >= s.M {
			return fmt.Errorf("sched: job %s mapped to processor %d of %d", j.Name(), a.Proc, s.M)
		}
		if a.Start < jt.Arrival[i] {
			return fmt.Errorf("sched: job %s starts at %v before arrival %v",
				j.Name(), jt.Scale.FromTicks(a.Start), j.Arrival)
		}
		if a.Start+jt.WCET[i] > jt.Deadline[i] {
			return fmt.Errorf("sched: job %s misses deadline: ends %v > %v",
				j.Name(), jt.Scale.FromTicks(a.Start+jt.WCET[i]), j.Deadline)
		}
	}
	// Checking the transitively reduced successor lists suffices for the
	// full precedence relation: every removed edge is implied by a kept
	// chain, and e_i <= s_j composes along chains.
	for i, succs := range tg.Succ {
		for _, j := range succs {
			if s.Assign[j].Start < s.Assign[i].Start+jt.WCET[i] {
				return fmt.Errorf("sched: precedence %s -> %s violated",
					tg.Jobs[i].Name(), tg.Jobs[j].Name())
			}
		}
	}
	// Mutual exclusion per processor, on the static chains.
	for p, jobs := range s.ProcessorOrder() {
		for i := 1; i < len(jobs); i++ {
			prev, cur := jobs[i-1], jobs[i]
			if s.Assign[cur].Start < s.Assign[prev].Start+jt.WCET[prev] {
				return fmt.Errorf("sched: jobs %s and %s overlap on processor %d",
					tg.Jobs[prev].Name(), tg.Jobs[cur].Name(), p)
			}
		}
	}
	return nil
}

// ProcessorOrder returns, for each processor, the job indices in start-time
// order — the static order the online policy of Section IV executes. The
// schedule has one assignment per job, each on a processor below M.
func (s *Schedule) ProcessorOrder() [][]int {
	// The chains share one backing array, cut to exact capacities.
	n := len(s.TG.Jobs)
	byProc := make([][]int, s.M)
	count := make([]int, s.M)
	for i := 0; i < n; i++ {
		count[s.Assign[i].Proc]++
	}
	flat := make([]int, n)
	off := 0
	for p, c := range count {
		if c > 0 {
			byProc[p] = flat[off : off : off+c]
		}
		off += c
	}
	for i := 0; i < n; i++ {
		p := s.Assign[i].Proc
		byProc[p] = append(byProc[p], i)
	}
	for _, jobs := range byProc {
		// Stable: start ties keep index order.
		slices.SortStableFunc(jobs, func(a, b int) int { return cmp.Compare(s.Assign[a].Start, s.Assign[b].Start) })
	}
	return byProc
}

// ChainPrev returns, for each job index, the previous job on the same
// processor in the chains from ProcessorOrder, or -1 for a chain's first.
func (s *Schedule) ChainPrev(chains [][]int) []int {
	prev := make([]int, len(s.TG.Jobs))
	for i := range prev {
		prev[i] = -1
	}
	for _, chain := range chains {
		for i := 1; i < len(chain); i++ {
			prev[chain[i]] = chain[i-1]
		}
	}
	return prev
}

// CombinedOrder returns a topological order of the frame's jobs with
// respect to precedence edges plus the static chains from ProcessorOrder.
// Jobs leave a FIFO of ready jobs; the jobs that one job readies join it
// in index order. It fails if the static schedule contradicts the precedence constraints; the
// error carries no package prefix, so the runtime that rejects the
// schedule names itself.
func (s *Schedule) CombinedOrder(chains [][]int) ([]int, error) {
	edges := s.TG.Edges()
	n := len(s.TG.Jobs)
	each := func(visit func(a, b int)) {
		for _, e := range edges {
			visit(e[0], e[1])
		}
		for _, chain := range chains {
			for i := 1; i < len(chain); i++ {
				visit(chain[i-1], chain[i])
			}
		}
	}
	// CSR adjacency: the successors of v are succ[off[v]:off[v+1]]. off[v]
	// counts v's edges, becomes the end of v's span by a prefix sum, and
	// walks back to its start as the span fills.
	off := make([]int32, n+1)
	indeg := make([]int32, n)
	each(func(a, b int) { off[a]++; indeg[b]++ })
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	succ := make([]int32, off[n])
	each(func(a, b int) { off[a]--; succ[off[a]] = int32(b) })

	// order doubles as the FIFO: order[head:] is the ready queue.
	order := make([]int, 0, n)
	for i, d := range indeg {
		if d == 0 {
			order = append(order, i)
		}
	}
	for head := 0; head < len(order); head++ {
		v, batch := order[head], len(order)
		for _, u := range succ[off[v]:off[v+1]] {
			if indeg[u]--; indeg[u] == 0 {
				order = append(order, int(u))
			}
		}
		slices.Sort(order[batch:])
	}
	if len(order) != n {
		return nil, errors.New("static schedule is inconsistent with the precedence constraints (cycle between processor order and task graph)")
	}
	return order, nil
}

// Makespan returns the latest completion time in the frame.
func (s *Schedule) Makespan() Time {
	return s.table().Scale.FromTicks(s.makespanTicks())
}

// makespanTicks is the latest completion tick max_i s_i + C_i, 0 for an
// empty frame.
func (s *Schedule) makespanTicks() int64 {
	jt := s.table()
	mk := int64(0)
	for i, a := range s.Assign {
		mk = max(mk, a.Start+jt.WCET[i])
	}
	return mk
}

// ListSchedule runs the list-scheduling simulation: at every decision
// instant, each idle processor picks the highest-SP job that has arrived
// and whose task-graph predecessors have all completed.
//
// The simulation is event-driven on the task graph's integer timescale
// (see event.go). A hand-built graph whose timing does not fit that
// timescale fails with its *taskgraph.TimescaleError.
func ListSchedule(tg *taskgraph.TaskGraph, m int, h Heuristic) (*Schedule, error) {
	if m < 1 {
		return nil, fmt.Errorf("sched: %d processors", m)
	}
	pc, err := newPrecomp(tg)
	if err != nil {
		return nil, err
	}
	return pc.listSchedule(m, h, pc.rankFor(h))
}

// FindFeasible tries the heuristics in preference order on the given
// processor count and returns the first schedule satisfying all
// feasibility constraints, or an error wrapping the last heuristic's
// failure. The lanes after the first feasible one never run.
func FindFeasible(tg *taskgraph.TaskGraph, m int) (*Schedule, error) {
	pc, err := newPrecomp(tg)
	if err != nil {
		return nil, noFeasible(m, err)
	}
	for _, h := range Heuristics {
		r := pc.lane(m, h)
		if r.Feasible {
			return r.Schedule, nil
		}
		err = r.Err
	}
	return nil, noFeasible(m, err)
}

// MinProcessors searches for the smallest processor count in [1, limit]
// with a feasible schedule, returning the schedule found. The search
// starts at ⌈Load(TG)⌉, below which Proposition 3.1 rules every count out.
func MinProcessors(tg *taskgraph.TaskGraph, limit int) (*Schedule, error) {
	w, err := tg.Windows()
	if err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	for m := max(w.Load().Processors(), 1); m <= limit; m++ {
		if s, err := FindFeasible(tg, m); err == nil {
			return s, nil
		}
	}
	return nil, fmt.Errorf("sched: no feasible schedule with up to %d processors", limit)
}

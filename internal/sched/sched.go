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
	"sort"

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

// Assignment is one job's placement: processor µ_i and start time s_i.
type Assignment struct {
	Proc  int
	Start Time
}

// Schedule is a static schedule for a task graph on M processors.
type Schedule struct {
	TG *taskgraph.TaskGraph
	M  int
	// Assign is indexed by job index.
	Assign []Assignment
	// Heuristic records which SP produced the schedule.
	Heuristic Heuristic
}

// End returns the completion time e_i = s_i + C_i of job i.
func (s *Schedule) End(i int) Time {
	return s.Assign[i].Start.Add(s.TG.Jobs[i].WCET)
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
	var out []Miss
	for i, j := range s.TG.Jobs {
		if e := s.End(i); j.Deadline.Less(e) {
			out = append(out, Miss{Job: j, End: e, Deadline: j.Deadline})
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
// The checks run on the task graph's integer timescale (TaskGraph.Ticks):
// the start times are lowered onto it, then everything is int64
// comparisons. Engine output always lies on that grid. Imported or
// hand-built schedules may start jobs between its ticks; they are checked
// on the coarsest refinement of the timescale that holds every start time,
// and a start that fits no refinement within the rational.MaxTick guard is
// itself a violation naming the job.
func (s *Schedule) Validate() error {
	jt, startT, err := s.startTicks()
	if err != nil {
		return err
	}
	return validateTicks(s, jt, startT)
}

// startTicks lowers the start times onto the task graph's timescale (or
// its coarsest refinement holding every start) and returns the tick table
// on that scale with the starts in ticks.
func (s *Schedule) startTicks() (*taskgraph.JobTicks, []int64, error) {
	tg := s.TG
	n := len(tg.Jobs)
	if len(s.Assign) != n {
		return nil, nil, fmt.Errorf("sched: %d assignments for %d jobs", len(s.Assign), n)
	}
	jt, err := tg.Ticks()
	if err != nil {
		return nil, nil, fmt.Errorf("sched: %w", err)
	}
	startT := make([]int64, n)
	for i, a := range s.Assign {
		t, ok := jt.Scale.GuardedTicks(a.Start)
		if !ok {
			starts := make([]Time, n)
			for k := range s.Assign {
				starts[k] = s.Assign[k].Start
			}
			if jt, startT, err = tg.TicksWithStarts(starts); err != nil {
				return nil, nil, fmt.Errorf("sched: %w", err)
			}
			break
		}
		startT[i] = t
	}
	return jt, startT, nil
}

// ProcessorOrder returns, for each processor, the job indices in start-time
// order — the static order the online policy of Section IV executes —
// comparing starts in ticks; it fails where Validate cannot lower them.
func (s *Schedule) ProcessorOrder() ([][]int, error) {
	_, startT, err := s.startTicks()
	if err != nil {
		return nil, err
	}
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
		slices.SortStableFunc(jobs, func(a, b int) int { return cmp.Compare(startT[a], startT[b]) })
	}
	return byProc, nil
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
// respect to precedence edges plus the static chains from ProcessorOrder,
// taking the smallest ready index first. It fails if the static schedule
// contradicts the precedence constraints; the error carries no package
// prefix, so the runtime that rejects the schedule names itself.
func (s *Schedule) CombinedOrder(chains [][]int) ([]int, error) {
	tg := s.TG
	n := len(tg.Jobs)
	adj := make([][]int, n)
	indeg := make([]int, n)
	add := func(a, b int) {
		adj[a] = append(adj[a], b)
		indeg[b]++
	}
	for _, e := range tg.Edges() {
		add(e[0], e[1])
	}
	for _, chain := range chains {
		for i := 1; i < len(chain); i++ {
			add(chain[i-1], chain[i])
		}
	}
	var ready []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	sort.Ints(ready)
	var order []int
	for len(ready) > 0 {
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		var next []int
		for _, u := range adj[v] {
			indeg[u]--
			if indeg[u] == 0 {
				next = append(next, u)
			}
		}
		sort.Ints(next)
		ready = append(ready, next...)
	}
	if len(order) != n {
		return nil, errors.New("static schedule is inconsistent with the precedence constraints (cycle between processor order and task graph)")
	}
	return order, nil
}

// Makespan returns the latest completion time in the frame.
func (s *Schedule) Makespan() Time {
	max := rational.Zero
	for i := range s.TG.Jobs {
		if e := s.End(i); max.Less(e) {
			max = e
		}
	}
	return max
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

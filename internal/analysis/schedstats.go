// Package analysis provides model-level analyses on top of the FPPN core:
// static-schedule statistics used by the ablation experiments, end-to-end
// chain latencies and the WCET provisioning margin.
package analysis

import (
	"fmt"
	"strings"

	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// Time aliases the exact rational time type.
type Time = rational.Rat

// SchedStats summarizes a static schedule for ablation comparisons.
type SchedStats struct {
	Heuristic  sched.Heuristic
	Processors int
	Feasible   bool
	Misses     int
	Makespan   Time
	// Utilization is busy time / (M · H) over the frame.
	Utilization rational.Rat
	// PerProcBusy is the busy time of each processor within one frame.
	PerProcBusy []Time
	// Jobs counts the frame's jobs (the population MinSlack minimizes
	// over).
	Jobs int
	// MinSlack is the minimum deadline slack min_i (D_i − e_i) across
	// jobs (negative when deadlines are missed). With no jobs it stays at
	// its zero value but is undefined — use Slack for the explicit form.
	MinSlack Time
}

// Slack returns the minimum deadline slack and whether the schedule has
// any job to take the minimum over; with an empty frame the slack is
// undefined and ok is false.
func (st SchedStats) Slack() (Time, bool) {
	return st.MinSlack, st.Jobs > 0
}

// Stats computes the statistics of a static schedule.
func Stats(s *sched.Schedule) SchedStats {
	tg := s.TG
	st := SchedStats{
		Heuristic:   s.Heuristic,
		Processors:  s.M,
		Feasible:    s.Validate() == nil,
		Misses:      len(s.Misses()),
		Makespan:    s.Makespan(),
		PerProcBusy: make([]Time, s.M),
		Jobs:        len(tg.Jobs),
	}
	busy := rational.Zero
	first := true
	for i, j := range tg.Jobs {
		st.PerProcBusy[s.Assign[i].Proc] = st.PerProcBusy[s.Assign[i].Proc].Add(j.WCET)
		busy = busy.Add(j.WCET)
		slack := j.Deadline.Sub(s.End(i))
		if first || slack.Less(st.MinSlack) {
			st.MinSlack = slack
			first = false
		}
	}
	denom := tg.Hyperperiod.MulInt(int64(s.M))
	if denom.Sign() > 0 {
		st.Utilization = busy.Div(denom)
	}
	return st
}

// String renders the statistics on one line.
func (st SchedStats) String() string {
	slack := "n/a"
	if s, ok := st.Slack(); ok {
		slack = fmt.Sprintf("%vs", s)
	}
	return fmt.Sprintf("%v on M=%d: feasible=%v misses=%d makespan=%vs util=%.3f minSlack=%s",
		st.Heuristic, st.Processors, st.Feasible, st.Misses,
		st.Makespan, st.Utilization.Float64(), slack)
}

// CompareHeuristics schedules the task graph with every heuristic on m
// processors and returns the per-heuristic statistics — the ablation table
// behind Section III-B's remark that "different heuristics exist for
// optimizing priority order SP". The heuristics run as a concurrent
// portfolio race; statistics come back in preference order regardless of
// worker interleaving.
func CompareHeuristics(tg *taskgraph.TaskGraph, m int) ([]SchedStats, error) {
	return CompareHeuristicsWorkers(tg, m, 0)
}

// CompareHeuristicsWorkers is CompareHeuristics with an explicit
// concurrency knob (0 = GOMAXPROCS, 1 = sequential).
func CompareHeuristicsWorkers(tg *taskgraph.TaskGraph, m, workers int) ([]SchedStats, error) {
	var out []SchedStats
	for _, r := range sched.RunPortfolio(tg, m, sched.PortfolioOptions{Workers: workers}) {
		if r.Schedule == nil {
			return nil, r.Err
		}
		out = append(out, Stats(r.Schedule))
	}
	return out, nil
}

// Table renders a slice of statistics as a text table.
func Table(stats []SchedStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-4s %-9s %-7s %-12s %-8s\n",
		"heuristic", "M", "feasible", "misses", "makespan", "util")
	for _, st := range stats {
		fmt.Fprintf(&b, "%-20v %-4d %-9v %-7d %-12v %-8.3f\n",
			st.Heuristic, st.Processors, st.Feasible, st.Misses,
			st.Makespan, st.Utilization.Float64())
	}
	return b.String()
}

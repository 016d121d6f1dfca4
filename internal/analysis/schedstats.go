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

// Stats computes the statistics of a static schedule. The sums and the
// slack minimum run in ticks of the schedule's table.
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
	jt, err := s.Ticks()
	if err != nil || len(tg.Jobs) == 0 {
		return st
	}
	busyP := make([]int64, s.M)
	busy, minSlack := int64(0), int64(0)
	for i, a := range s.Assign {
		busyP[a.Proc] += jt.WCET[i]
		busy += jt.WCET[i]
		if slack := jt.Deadline[i] - a.Start - jt.WCET[i]; i == 0 || slack < minSlack {
			minSlack = slack
		}
	}
	for p, b := range busyP {
		st.PerProcBusy[p] = jt.Scale.FromTicks(b)
	}
	st.MinSlack = jt.Scale.FromTicks(minSlack)
	denom := tg.Hyperperiod.MulInt(int64(s.M))
	if denom.Sign() > 0 {
		st.Utilization = jt.Scale.FromTicks(busy).Div(denom)
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
// optimizing priority order SP". The heuristics run as the schedule
// portfolio (sched.RunPortfolio); statistics come back in preference order.
func CompareHeuristics(tg *taskgraph.TaskGraph, m int) ([]SchedStats, error) {
	var out []SchedStats
	for _, r := range sched.RunPortfolio(tg, m, sched.PortfolioOptions{}) {
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

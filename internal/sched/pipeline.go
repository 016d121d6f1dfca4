package sched

// Pipelined schedule validation — the paper's future-work item. The paper
// restricts itself to non-pipelined frames ("we restrict ourselves to
// non-pipelined scheduling and thus truncate the deadlines to avoid overlap
// of subsequent task graph executions"); deriving the task graph with a
// positive DeadlineSlack lifts the truncation, and ValidatePipelined checks
// that the resulting static schedule can be repeated with initiation
// interval H even though one repetition's tail overlaps the next one's
// head:
//
//   - the Definition 3.2 constraints hold within the (slack-extended)
//     frame;
//   - overlaying the schedule with itself shifted by k·H keeps every
//     processor's busy intervals disjoint; and
//   - for every pair of jobs whose processes are precedence-related (or
//     identical), a job of repetition r finishes before the other's job of
//     repetition r+1 starts — preserving the cross-repetition zero-delay
//     order on shared channels.

import (
	"fmt"

	"repro/internal/taskgraph"
)

// PipelineSchedule builds the textbook pipelined placement: every process
// gets its own processor (so successive repetitions of a stage never
// collide) and every job starts at its ASAP time. It requires at least as
// many processors as processes and a task graph derived with enough
// DeadlineSlack for the ASAP completion times; the result should be checked
// with ValidatePipelined.
func PipelineSchedule(tg *taskgraph.TaskGraph, m int) (*Schedule, error) {
	if np := len(tg.Net.Processes()); np > m {
		return nil, fmt.Errorf("sched: pipeline placement needs %d processors, have %d", np, m)
	}
	w, err := tg.Windows()
	if err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	assign := make([]Assignment, len(tg.Jobs))
	for i, j := range tg.Jobs {
		assign[i] = Assignment{Proc: j.Pid, Start: w.ASAP[i]}
	}
	s := &Schedule{TG: tg, M: m, Assign: assign, Heuristic: ALAPEDF}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("sched: ASAP pipeline placement infeasible: %w", err)
	}
	return s, nil
}

// ValidatePipelined checks that the schedule repeats correctly with
// initiation interval H = tg.Hyperperiod even when its makespan exceeds H.
// The checks run in ticks of the schedule's table, on which H must be a
// whole number of ticks.
func (s *Schedule) ValidatePipelined() error {
	tg := s.TG

	// Base constraints except the "fits in one frame" implication:
	// arrivals, (extended) deadlines, precedence, same-repetition mutual
	// exclusion.
	if err := s.Validate(); err != nil {
		return fmt.Errorf("sched: pipelined schedule fails base constraints: %w", err)
	}
	jt := s.table()
	h, ok := jt.Scale.GuardedTicks(tg.Hyperperiod)
	if !ok || h <= 0 {
		return fmt.Errorf("sched: hyperperiod %v is not a positive whole number of ticks of the schedule's 1/%d timescale",
			tg.Hyperperiod, jt.Scale.Den())
	}
	// A job of repetition k overlaps one of repetition 0 only if
	// k·H < e_i − s_j, which is at most the span from the earliest start
	// to the makespan; starts may precede 0 on a hand-built graph.
	span := s.makespanTicks()
	if len(s.Assign) > 0 {
		first := s.Assign[0].Start
		for _, a := range s.Assign {
			first = min(first, a.Start)
		}
		span -= first
	}
	if span <= h {
		return nil // no overlap; plain feasibility suffices
	}
	end := func(i int) int64 { return s.Assign[i].Start + jt.WCET[i] }

	// Processor mutual exclusion across repetitions.
	for p, jobs := range s.ProcessorOrder() {
		for _, i := range jobs {
			for _, j := range jobs {
				for k := int64(1); k*h < span; k++ {
					shift := k * h
					// [s_i, e_i) vs [s_j + kH, e_j + kH)
					if s.Assign[i].Start < end(j)+shift && s.Assign[j].Start+shift < end(i) {
						return fmt.Errorf(
							"sched: pipelined overlap on processor %d: %s of one repetition collides with %s of repetition +%d",
							p, tg.Jobs[i].Name(), tg.Jobs[j].Name(), k)
					}
				}
			}
		}
	}

	// Cross-repetition ordering of related (channel-sharing) processes:
	// every job of repetition r must finish before any related job of
	// repetition r+1 starts.
	for i, ji := range tg.Jobs {
		for j, jj := range tg.Jobs {
			if !tg.Related(ji.Pid, jj.Pid) {
				continue
			}
			if s.Assign[j].Start+h < end(i) {
				return fmt.Errorf(
					"sched: pipelined precedence violation: %s (end %v) overruns %s of the next repetition (start %v + H)",
					ji.Name(), s.End(i), jj.Name(), s.StartTime(j))
			}
		}
	}
	return nil
}

package sched

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/taskgraph"
)

// PortfolioOptions tunes the schedule-priority portfolio race.
type PortfolioOptions struct {
	// Workers bounds the number of heuristics scheduled concurrently.
	// 0 selects GOMAXPROCS; 1 runs the lanes one after another. Every
	// worker count produces identical results.
	Workers int
	// Heuristics overrides the portfolio membership and its tie-break
	// order; nil means the package-level Heuristics list.
	Heuristics []Heuristic
}

// HeuristicResult is one lane of the portfolio race.
type HeuristicResult struct {
	// Heuristic identifies the lane.
	Heuristic Heuristic
	// Schedule is the list-scheduling result; nil when the scheduler
	// itself failed (stall), in which case Err explains why.
	Schedule *Schedule
	// Feasible reports whether Schedule passed Validate.
	Feasible bool
	// Err is the scheduling or feasibility error, nil for feasible lanes.
	Err error
}

// RunPortfolio list-schedules the task graph with every portfolio heuristic
// concurrently and returns the per-heuristic results in portfolio order.
// The task graph is read-only during scheduling, so lanes never interact;
// results are collected positionally and are identical for every worker
// count.
//
// The per-graph work every lane needs — the memoized edge list and tick
// table, predecessor counts and the per-heuristic rank permutations — is
// computed once before the fan-out and shared read-only, so each lane
// runs only its own event loop and feasibility check. Lane for lane the
// results equal ListSchedule followed by Schedule.Validate.
func RunPortfolio(tg *taskgraph.TaskGraph, m int, opts PortfolioOptions) []HeuristicResult {
	hs := opts.Heuristics
	if hs == nil {
		hs = Heuristics
	}
	tg.Prewarm() // materialize the lazy memos before concurrent readers
	pc, err := newPrecomp(tg)
	if err != nil {
		results := make([]HeuristicResult, len(hs))
		for i, h := range hs {
			results[i] = HeuristicResult{Heuristic: h, Err: err}
		}
		return results
	}
	ranks := make([][]int32, len(hs))
	for i, h := range hs {
		ranks[i] = pc.rankFor(h)
	}
	results, _ := parallel.Map(nil, len(hs), opts.Workers, func(i int) (HeuristicResult, error) {
		r := HeuristicResult{Heuristic: hs[i]}
		s, startT, err := pc.listScheduleTicks(m, hs[i], ranks[i])
		if err != nil {
			r.Err = err
			return r, nil
		}
		r.Schedule = s
		// The engine hands back the start instants in ticks, so
		// feasibility checking skips the lowering Schedule.Validate does.
		if err := validateTicks(s, pc.jt, startT); err != nil {
			r.Err = err
			return r, nil
		}
		r.Feasible = true
		return r, nil
	})
	return results
}

// Portfolio races every heuristic and deterministically picks the best
// feasible schedule under the documented total order:
//
//  1. feasible schedules beat infeasible ones;
//  2. smaller makespan beats larger makespan;
//  3. ties break lexicographically on portfolio position — the heuristic
//     listed earlier in opts.Heuristics (default: the package Heuristics
//     preference order) wins.
//
// The order is total over the race results, so the choice is independent of
// worker count and goroutine interleaving. An error is returned when no
// lane is feasible, wrapping the last lane's failure like FindFeasible.
func Portfolio(tg *taskgraph.TaskGraph, m int, opts PortfolioOptions) (*Schedule, error) {
	results := RunPortfolio(tg, m, opts)
	var (
		best    *Schedule
		lastErr error
	)
	for _, r := range results {
		if !r.Feasible {
			lastErr = r.Err
			continue
		}
		if best == nil || r.Schedule.Makespan().Less(best.Makespan()) {
			best = r.Schedule
		}
	}
	if best == nil {
		return nil, fmt.Errorf("sched: no heuristic found a feasible schedule on %d processors: %w", m, lastErr)
	}
	return best, nil
}

// FindFeasibleWorkers is FindFeasible with an explicit concurrency knob:
// all heuristics race, but the selection rule stays "first feasible lane in
// preference order", so the result is byte-identical to the sequential
// heuristic loop for every worker count.
func FindFeasibleWorkers(tg *taskgraph.TaskGraph, m, workers int) (*Schedule, error) {
	results := RunPortfolio(tg, m, PortfolioOptions{Workers: workers})
	var lastErr error
	for _, r := range results {
		if r.Feasible {
			return r.Schedule, nil
		}
		lastErr = r.Err
	}
	return nil, fmt.Errorf("sched: no heuristic found a feasible schedule on %d processors: %w", m, lastErr)
}

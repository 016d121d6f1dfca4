package sched

import (
	"fmt"

	"repro/internal/taskgraph"
)

// PortfolioOptions tunes the schedule-priority portfolio.
type PortfolioOptions struct {
	// Heuristics overrides the portfolio membership and its tie-break
	// order; nil means the package-level Heuristics list.
	Heuristics []Heuristic
}

// HeuristicResult is one lane of the portfolio.
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

// RunPortfolio list-schedules the task graph with every portfolio heuristic,
// one after another, and returns the per-heuristic results in portfolio
// order.
//
// The per-graph work every lane needs — the tick table and predecessor
// counts — is computed once and shared, so each lane runs only its rank
// permutation, its event loop and its feasibility check. Lane for lane the
// results equal ListSchedule followed by Schedule.Validate.
func RunPortfolio(tg *taskgraph.TaskGraph, m int, opts PortfolioOptions) []HeuristicResult {
	hs := opts.Heuristics
	if hs == nil {
		hs = Heuristics
	}
	results := make([]HeuristicResult, len(hs))
	pc, err := newPrecomp(tg)
	for i, h := range hs {
		if err != nil {
			results[i] = HeuristicResult{Heuristic: h, Err: err}
			continue
		}
		results[i] = pc.lane(m, h)
	}
	return results
}

// lane list-schedules one heuristic and checks the schedule. The engine
// hands back the start instants in ticks, so feasibility checking skips
// the lowering Schedule.Validate does.
func (pc *precomp) lane(m int, h Heuristic) HeuristicResult {
	r := HeuristicResult{Heuristic: h}
	s, startT, err := pc.listScheduleTicks(m, h, pc.rankFor(h))
	if err != nil {
		r.Err = err
		return r
	}
	r.Schedule = s
	if err := validateTicks(s, pc.jt, startT); err != nil {
		r.Err = err
		return r
	}
	r.Feasible = true
	return r
}

// Portfolio runs every heuristic and deterministically picks the best
// feasible schedule under the documented total order:
//
//  1. feasible schedules beat infeasible ones;
//  2. smaller makespan beats larger makespan;
//  3. ties break lexicographically on portfolio position — the heuristic
//     listed earlier in opts.Heuristics (default: the package Heuristics
//     preference order) wins.
//
// An error is returned when no lane is feasible, wrapping the last lane's
// failure like FindFeasible.
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
		return nil, noFeasible(m, lastErr)
	}
	return best, nil
}

// noFeasible is the error of a portfolio without a feasible lane; it
// wraps the last lane's failure.
func noFeasible(m int, lastErr error) error {
	return fmt.Errorf("sched: no heuristic found a feasible schedule on %d processors: %w", m, lastErr)
}

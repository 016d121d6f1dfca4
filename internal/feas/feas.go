// Package feas runs global-scheduling schedulability tests over a derived
// task graph: the sporadic-DAG feasibility analysis of the literature,
// specialized to one hyperperiod frame of an FPPN network.
//
// Three tests are implemented, each returning a structured verdict:
//
//   - EDF: the demand/load criterion on precedence-adjusted (ASAP, ALAP)
//     windows — exact for single-processor preemptive EDF* (Chetto, Silly
//     & Bouchentouf) — plus a Graham-style busy-interval chain bound for
//     m >= 2. Bonifaci et al. prove the underlying deadline-based test
//     has speedup bound 2 − 1/m in the sporadic DAG model.
//   - DM: a fixed-priority variant of the chain bound under
//     deadline-monotonic ranks, with interference restricted to
//     higher-rank volume and an explicit non-preemptive blocking term.
//     The corresponding DM test of Bonifaci et al. carries speedup bound
//     3 − 1/m.
//   - RTA: a Dong & Liu-style response-time iteration that starts from
//     the Graham bound and shrinks the interfering volume to jobs
//     arriving before the current completion bound, per job, to a fixed
//     point. Never weaker than the EDF chain bound.
//
// Every Feasible verdict from the chain-bound family is *certified*: the
// bound holds for every work-conserving non-preemptive list schedule, so
// sched.FindFeasible must succeed on the same (graph, m). Every
// Infeasible verdict follows from a necessary condition (a job window
// that cannot hold its WCET, or a corner window whose demand exceeds
// m × length), so it is valid even for preemptive global scheduling and
// implies sched.MinProcessors > m. The differential suite in
// internal/integration pins this soundness sandwich between the nominal
// processor-demand bound (taskgraph.JobTicks.Demand, lower bound) and
// sched.MinProcessors (oracle).
//
// Like the sched engine, the analysis computes on the task graph's int64
// timescale: it reads the ASAP/ALAP windows and the load's corner sweep
// from taskgraph.Windows, and an in-package differential test holds the
// tests to an exact-rational oracle with identical reports.
package feas

import (
	"fmt"

	"repro/internal/rational"
	"repro/internal/taskgraph"
)

// Time aliases the exact rational time type.
type Time = rational.Rat

// Verdict is the outcome of one schedulability test.
type Verdict int

const (
	// Unknown means the test can neither prove nor refute feasibility.
	Unknown Verdict = iota
	// Feasible means the test proves a deadline-meeting schedule exists.
	Feasible
	// Infeasible means the test proves no schedule can meet all deadlines
	// on m processors, even with preemption.
	Infeasible
)

// String returns "unknown", "feasible" or "infeasible".
func (v Verdict) String() string {
	switch v {
	case Unknown:
		return "unknown"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Test identifies one of the implemented schedulability tests.
type Test int

const (
	// EDF is the deadline-based test: exact single-processor demand
	// criterion plus the Graham chain bound.
	EDF Test = iota
	// DM is the deadline-monotonic fixed-priority test.
	DM
	// RTA is the iterative response-time refinement.
	RTA
)

// Tests lists the implemented tests in report order.
var Tests = []Test{EDF, DM, RTA}

// String returns "edf", "dm" or "rta".
func (t Test) String() string {
	switch t {
	case EDF:
		return "edf"
	case DM:
		return "dm"
	case RTA:
		return "rta"
	default:
		return fmt.Sprintf("Test(%d)", int(t))
	}
}

// Speedup returns the test's speedup bound on m processors from the
// sporadic-DAG literature: a task set feasible on m speed-1 processors is
// accepted by the test on m processors of the returned speed. EDF and RTA
// carry Bonifaci et al.'s 2 − 1/m, DM their 3 − 1/m.
func (t Test) Speedup(m int) rational.Rat {
	if m < 1 {
		return rational.Zero
	}
	base := int64(2)
	if t == DM {
		base = 3
	}
	return rational.FromInt(base).Sub(rational.New(1, int64(m)))
}

// Bound is the binding quantity of a verdict: the job whose completion
// bound sits closest to (or beyond) its deadline.
type Bound struct {
	// Job is the paper's p[k] job name.
	Job string
	// Proc is the job's process name.
	Proc string
	// Complete is the test's upper bound on the job's completion time.
	Complete Time
	// Deadline is the job's absolute deadline within the frame.
	Deadline Time
}

// Result is the outcome of one test at one processor count.
type Result struct {
	// Test identifies the schedulability test.
	Test Test
	// M is the processor count the verdict applies to.
	M int
	// Verdict is feasible, infeasible or unknown.
	Verdict Verdict
	// Certified reports that a Feasible verdict was established by the
	// chain bound, which holds for every work-conserving non-preemptive
	// list schedule — so sched.FindFeasible is guaranteed to succeed.
	// Exact-but-preemptive verdicts (the m = 1 demand criterion) leave it
	// false.
	Certified bool
	// Reason describes how the verdict was reached, deterministically.
	Reason string

	witness    taskgraph.Window
	hasWitness bool
	worst      Bound
	hasWorst   bool
}

// Witness returns the overloaded window behind an Infeasible verdict.
// ok is false when the verdict has no interval witness (window violations
// and non-infeasible verdicts).
func (r Result) Witness() (taskgraph.Window, bool) { return r.witness, r.hasWitness }

// Worst returns the binding completion bound behind a chain-bound
// verdict. ok is false when the test produced no per-job bound (necessary
// conditions fired first, or the graph is empty).
func (r Result) Worst() (Bound, bool) { return r.worst, r.hasWorst }

// Workload is the per-DAG volume / critical-path extraction every test
// shares.
type Workload struct {
	// Jobs is the frame job count.
	Jobs int
	// Hyperperiod is the frame length H.
	Hyperperiod Time
	// Volume is the total work vol(TG) = Σ C_i.
	Volume Time
	// Span is the critical-path length len(TG): the maximum Σ C_i over
	// precedence chains.
	Span Time
	// Load is the precedence-aware demand metric of Section III-B:
	// max over (ASAP, ALAP) corner windows of demand / length. It is
	// taskgraph.Load: both read the one sweep, Windows.Load.
	Load rational.Rat

	critical   taskgraph.Window
	violations []Bound
}

// Critical returns a corner window attaining Load. ok is false when the
// graph has no positive-demand window (e.g. no jobs).
func (w Workload) Critical() (taskgraph.Window, bool) {
	return w.critical, w.critical.Demand.Sign() > 0
}

// WindowViolations lists every job whose precedence-adjusted window
// cannot hold its WCET (earliest completion ASAP + C beyond latest
// allowed ALAP), in job order: each is infeasible on any processor
// count. Empty for schedulable workloads.
func (w Workload) WindowViolations() []Bound { return w.violations }

// MinProcessorsLB is the least processor count compatible with the load
// criterion: ⌈Load⌉ (at least 1 for a non-empty graph). It never exceeds
// the exact sched.MinProcessors.
func (w Workload) MinProcessorsLB() int { return max(int(w.Load.Ceil()), min(w.Jobs, 1)) }

// Options tunes an analysis run. It has no fields: the tests run one after
// another on the caller's goroutine and take no settings. The type stays
// so that Analyze keeps its signature for existing callers, among them
// the fppn.FeasOptions alias and the benchmark harness.
type Options struct{}

// Report is the outcome of Analyze: one workload extraction and one
// Result per Test, in Tests order.
type Report struct {
	// M is the processor count analyzed.
	M int
	// Workload is the shared volume / span / load extraction.
	Workload Workload
	// Results holds one entry per Tests element, in that order.
	Results []Result
}

// Result returns the entry for one test. ok is false for tests outside
// the report (never the case for Analyze-built reports and t in Tests).
func (r *Report) Result(t Test) (Result, bool) {
	for _, res := range r.Results {
		if res.Test == t {
			return res, true
		}
	}
	return Result{}, false
}

// Verdict combines the per-test verdicts: Feasible when some test proves
// feasibility and none proves infeasibility, Infeasible in the mirrored
// case, Unknown otherwise (including the contradictory case, which the
// differential suite would flag as a soundness bug).
func (r *Report) Verdict() Verdict {
	anyF, anyI := false, false
	for _, res := range r.Results {
		switch res.Verdict {
		case Feasible:
			anyF = true
		case Infeasible:
			anyI = true
		}
	}
	switch {
	case anyF && !anyI:
		return Feasible
	case anyI && !anyF:
		return Infeasible
	default:
		return Unknown
	}
}

// Analyze runs every schedulability test on the task graph for a platform
// of m identical processors. A task graph whose timing does not fit the
// integer timescale fails with its *taskgraph.TimescaleError.
func Analyze(tg *taskgraph.TaskGraph, m int, _ Options) (*Report, error) {
	if tg == nil {
		return nil, fmt.Errorf("feas: nil task graph")
	}
	if m < 1 {
		return nil, fmt.Errorf("feas: %d processors", m)
	}
	lo, err := lower(tg)
	if err != nil {
		return nil, err
	}
	return analyzeTicks(lo, m), nil
}

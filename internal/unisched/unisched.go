// Package unisched implements the baseline that the FPPN model generalizes:
// classic preemptive fixed-priority scheduling on a single processor, as
// used industrially both to meet deadlines and to ensure functional
// determinism (references [1] and [2] of the paper).
//
// On a uniprocessor, the relative execution order of communicating tasks is
// fixed by the release time stamps and the scheduling priorities — with
// zero (negligible) execution times, a higher-priority task released at the
// same instant always reads/writes shared state first. FPPN reproduces
// exactly this order through its functional-priority relation, which is why
// the paper's avionics case study could verify functional equivalence
// between the legacy uniprocessor prototype and the multiprocessor FPPN
// implementation "by testing". This package provides that reference:
//
//   - a functional simulator (RunFunctional) executing jobs in the
//     (release time, priority) order of an idealized fixed-priority
//     uniprocessor, against the same core.Machine data semantics; and
//   - a timing simulator (Simulate) of preemptive fixed-priority
//     scheduling, with response times and deadline misses, for utilization
//     comparisons against the multiprocessor schedules.
package unisched

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/rational"
)

// Time aliases the exact rational time type.
type Time = rational.Rat

// Priority assigns a fixed scheduling priority to every process; lower
// rank = higher priority (rank 0 runs first).
type Priority map[string]int

// RateMonotonic derives the classic rate-monotonic priority assignment from
// a network: shorter period = higher priority, with ties broken by process
// insertion order. Sporadic processes use their minimal inter-arrival
// period.
func RateMonotonic(net *core.Network) Priority {
	procs := net.Processes()
	idx := make([]int, len(procs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return procs[idx[a]].Period().Less(procs[idx[b]].Period())
	})
	pr := make(Priority, len(procs))
	for rank, i := range idx {
		pr[procs[i].Name] = rank
	}
	return pr
}

// Consistent reports whether the priority assignment agrees with the
// network's functional-priority DAG: every FP edge hi -> lo must have
// rank(hi) < rank(lo). When it does, the idealized fixed-priority execution
// order coincides with the FPPN zero-delay order and the two systems are
// functionally equivalent.
func Consistent(net *core.Network, pr Priority) error {
	for _, e := range net.PriorityEdges() {
		hi, lo := e[0], e[1]
		rh, okH := pr[hi]
		rl, okL := pr[lo]
		if !okH || !okL {
			return fmt.Errorf("unisched: priority missing for %q or %q", hi, lo)
		}
		if rh >= rl {
			return fmt.Errorf("unisched: scheduling priority %s(%d) !> %s(%d) contradicts functional priority %s -> %s",
				hi, rh, lo, rl, hi, lo)
		}
	}
	return nil
}

// FunctionalResult is the outcome of an idealized (zero-execution-time)
// fixed-priority uniprocessor run.
type FunctionalResult struct {
	// Jobs is the executed job order.
	Jobs []core.JobRef
	// Outputs and Channels mirror core.ZeroDelayResult.
	Outputs  map[string][]core.Sample
	Channels map[string][]core.Value
	Trace    core.Trace
}

// RunFunctional executes the network's processes the way an idealized
// fixed-priority uniprocessor would: jobs ordered by release time stamp,
// ties broken by scheduling priority, then by process name. This is the
// legacy behaviour that an FPPN port must reproduce.
func RunFunctional(net *core.Network, horizon Time, pr Priority,
	sporadicEvents map[string][]Time, inputs map[string][]core.Value,
	recordTrace bool) (*FunctionalResult, error) {

	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("unisched: %w", err)
	}
	rank, err := denseRank(net, pr)
	if err != nil {
		return nil, err
	}
	cn, err := core.CompileNetwork(net)
	if err != nil {
		return nil, err
	}
	res, err := cn.RunRanked(horizon, rank, core.ZeroDelayOptions{
		SporadicEvents: sporadicEvents, Inputs: inputs, RecordTrace: recordTrace,
	})
	if err != nil {
		return nil, fmt.Errorf("unisched: %w", err)
	}
	return &FunctionalResult{
		Jobs:     res.Jobs,
		Outputs:  res.Outputs,
		Channels: res.Channels,
		Trace:    res.Trace,
	}, nil
}

// denseRank ranks the processes (indexed as net.Processes) by
// (priority, name): the order in which an idealized fixed-priority
// uniprocessor runs jobs released together.
func denseRank(net *core.Network, pr Priority) ([]int, error) {
	procs := net.Processes()
	idx := make([]int, len(procs))
	for i, p := range procs {
		if _, ok := pr[p.Name]; !ok {
			return nil, fmt.Errorf("unisched: no priority for process %q", p.Name)
		}
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		return cmp.Or(cmp.Compare(pr[procs[a].Name], pr[procs[b].Name]),
			strings.Compare(procs[a].Name, procs[b].Name))
	})
	rank := make([]int, len(procs))
	for r, i := range idx {
		rank[i] = r
	}
	return rank, nil
}

// JobTiming is the timing record of one job in a preemptive fixed-priority
// simulation.
type JobTiming struct {
	Proc     string
	K        int64
	Release  Time
	Start    Time // first instant the job executes
	Finish   Time
	Deadline Time
	Missed   bool
	// Preemptions counts how many times the job was suspended by
	// higher-priority releases.
	Preemptions int
}

// SimResult is the outcome of a preemptive fixed-priority timing
// simulation.
type SimResult struct {
	Jobs   []JobTiming
	Misses int
	// Utilization is total executed time / horizon.
	Utilization rational.Rat
	// MaxLateness is the largest finish − deadline over all jobs (may be
	// negative when all deadlines are met).
	MaxLateness Time
}

// Simulate runs preemptive fixed-priority scheduling of the network's
// periodic and sporadic jobs on one processor over [0, horizon), executing
// every job for exactly its process WCET.
func Simulate(net *core.Network, horizon Time, pr Priority,
	sporadicEvents map[string][]Time) (*SimResult, error) {

	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("unisched: %w", err)
	}
	rank, err := denseRank(net, pr)
	if err != nil {
		return nil, err
	}
	order, err := core.JobOrder(net, rank, horizon, sporadicEvents)
	if err != nil {
		return nil, fmt.Errorf("unisched: %w", err)
	}
	refs := order.Refs()

	type job struct {
		proc      string
		k         int64
		release   Time
		remaining Time
		started   bool
		start     Time
		deadline  Time
		preempt   int
		rank      int
		seq       int
	}
	pending := make([]*job, len(refs))
	for seq, r := range refs {
		p := net.Process(r.Proc)
		pending[seq] = &job{
			proc:      r.Proc,
			k:         r.K,
			release:   r.Time,
			remaining: p.WCET,
			deadline:  r.Time.Add(p.Deadline()),
			rank:      pr[r.Proc],
			seq:       seq,
		}
	}
	// Event-driven simulation: at each instant run the highest-priority
	// released job until it finishes or a higher-priority release occurs.
	// pending follows the order, by release time, so the first release
	// after now is the next one.
	nextRelease := func(now Time) (Time, bool) {
		for _, j := range pending {
			if now.Less(j.release) {
				return j.release, true
			}
		}
		return Time{}, false
	}

	var done []JobTiming
	totalExec := rational.Zero
	now := rational.Zero
	var running *job
	for {
		// Pick the highest-priority released unfinished job.
		var best *job
		for _, j := range pending {
			if j.remaining.Sign() <= 0 || now.Less(j.release) {
				continue
			}
			if best == nil || j.rank < best.rank || (j.rank == best.rank && j.seq < best.seq) {
				best = j
			}
		}
		if best == nil {
			// Idle: jump to the next release, or stop.
			next, ok := nextRelease(now)
			if !ok {
				break
			}
			now = next
			running = nil
			continue
		}
		if running != nil && running != best && running.remaining.Sign() > 0 {
			running.preempt++
		}
		if !best.started {
			best.started = true
			best.start = now
		}
		running = best
		// Run until completion or the next release, whichever first.
		finish := now.Add(best.remaining)
		if next, ok := nextRelease(now); ok && next.Less(finish) {
			ran := next.Sub(now)
			best.remaining = best.remaining.Sub(ran)
			totalExec = totalExec.Add(ran)
			now = next
			continue
		}
		totalExec = totalExec.Add(best.remaining)
		best.remaining = rational.Zero
		now = finish
		done = append(done, JobTiming{
			Proc: best.proc, K: best.k, Release: best.release,
			Start: best.start, Finish: finish, Deadline: best.deadline,
			Missed: best.deadline.Less(finish), Preemptions: best.preempt,
		})
	}
	res := &SimResult{Jobs: done}
	res.MaxLateness = rational.FromInt(-1 << 30)
	for _, j := range done {
		if j.Missed {
			res.Misses++
		}
		if late := j.Finish.Sub(j.Deadline); res.MaxLateness.Less(late) {
			res.MaxLateness = late
		}
	}
	if horizon.Sign() > 0 {
		res.Utilization = totalExec.Div(horizon)
	}
	// Any job that never completed within the simulation is a miss too.
	for _, j := range pending {
		if j.remaining.Sign() > 0 {
			res.Misses++
		}
	}
	return res, nil
}

package taskgraph

// One timescale. The paper keeps time in Q+; this package lowers a
// network's timing onto one integer timescale (a rational.Scale) before
// deriving anything, and every later layer — the invocation simulation,
// the list scheduler, Schedule.Validate and the schedulability tests —
// computes on those int64 ticks. The lowering is exact: the scale's tick is
// 1/lcm of every denominator in the timing, so each rational time of the
// paper is a whole number of ticks and nothing is approximated. A model
// whose timing does not fit (the common denominator overflows, a value
// exceeds the rational.MaxTick guard) is rejected up front with a
// *TimescaleError: taskgraph.Derive fails with it and lint reports it as
// FPPN021. Derive also rejects frames of more than MaxFrameJobs jobs, a
// size lint already flags as the FPPN012 hyperperiod blow-up.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rational"
)

// MaxFrameJobs bounds the jobs of one frame; Derive rejects larger frames.
// With every value within rational.MaxTick = 2^40 ticks, sums of one value
// per job stay below 2^60; the bound is core's, which also keeps the FP'
// rank inside the rank field of core.SortFrame's packed key.
const MaxFrameJobs = core.MaxFrameJobs

// TimescaleError reports timing that does not fit the integer timescale.
type TimescaleError struct {
	// Kind is "network", "process" or "job".
	Kind string
	// Subject names the network, process or job.
	Subject string
	// Reason says which value does not fit and why.
	Reason string
}

func (e *TimescaleError) Error() string {
	return fmt.Sprintf("taskgraph: %s %q does not fit the integer timescale: %s", e.Kind, e.Subject, e.Reason)
}

// Timing is the timing of a network's derived network PN' on its integer
// timescale. Per-process slices follow net.Processes() order.
type Timing struct {
	// Scale is the timescale: one tick is 1/Scale.Den() time units.
	Scale rational.Scale
	// Hyperperiod is H = lcm{T'_p}.
	Hyperperiod Time
	// H and Horizon are H and the deadline truncation horizon
	// H + DeadlineSlack, in ticks.
	H, Horizon int64
	// Period, Deadline and WCET hold T'_p (the server period for sporadic
	// processes), d_p and C_p, in ticks.
	Period, Deadline, WCET []int64
	// Jobs is the frame's job count Σ_p m_p · H/T'_p, or some count
	// beyond MaxFrameJobs when the frame is larger than that.
	Jobs int
}

// LowerTiming lowers the timing of net onto one integer timescale: every
// server-substituted period, every deadline and WCET, H and
// H + deadlineSlack, each within rational.MaxTick ticks. It costs
// O(processes) and needs no derivation. The error is a *TimescaleError
// when the timing does not fit; any other error means the network has no
// derived network PN' (a sporadic process without a unique user, a
// non-positive period, no processes).
func LowerTiming(net *core.Network, deadlineSlack Time) (*Timing, error) {
	srv, err := serverTransform(net)
	if err != nil {
		return nil, err
	}
	return lowerTiming(net, srv.period, deadlineSlack)
}

func lowerTiming(net *core.Network, serverPeriod map[string]Time, deadlineSlack Time) (*Timing, error) {
	procs := net.Processes()
	if len(procs) == 0 {
		return nil, fmt.Errorf("taskgraph: network %q has no processes", net.Name)
	}
	period := func(p *core.Process) Time {
		if s, ok := serverPeriod[p.Name]; ok {
			return s
		}
		return p.Period()
	}
	vals := make([]rational.Rat, 0, 3*len(procs)+1)
	for _, p := range procs {
		if t := period(p); t.Sign() <= 0 {
			return nil, fmt.Errorf("taskgraph: process %q has non-positive period %v", p.Name, t)
		}
		vals = append(vals, period(p), p.Deadline(), p.WCET)
	}
	vals = append(vals, deadlineSlack)
	sc, ok := rational.CommonScale(vals)
	if !ok {
		return nil, &TimescaleError{Kind: "network", Subject: net.Name,
			Reason: "the common denominator of its periods, deadlines and WCETs overflows int64"}
	}
	tm := &Timing{
		Scale:    sc,
		Period:   make([]int64, len(procs)),
		Deadline: make([]int64, len(procs)),
		WCET:     make([]int64, len(procs)),
	}
	h := int64(1)
	for pi, p := range procs {
		var err error
		if tm.Period[pi], err = lowerValue(sc, "process", p.Name, "period", period(p)); err != nil {
			return nil, err
		}
		if tm.Deadline[pi], err = lowerValue(sc, "process", p.Name, "deadline", p.Deadline()); err != nil {
			return nil, err
		}
		if tm.WCET[pi], err = lowerValue(sc, "process", p.Name, "WCET", p.WCET); err != nil {
			return nil, err
		}
		// H = lcm of the period ticks; every step stays within the guard.
		pt := tm.Period[pi]
		q := h / gcd(h, pt)
		if q > rational.MaxTick/pt {
			return nil, &TimescaleError{Kind: "network", Subject: net.Name,
				Reason: fmt.Sprintf("its hyperperiod is beyond 2^40 ticks of the 1/%d s timescale", sc.Den())}
		}
		h = q * pt
	}
	tm.H = h
	tm.Hyperperiod = sc.FromTicks(h)
	slack, ok := sc.GuardedTicks(deadlineSlack)
	if !ok || !rational.InTickRange(h+slack) {
		return nil, &TimescaleError{Kind: "network", Subject: net.Name,
			Reason: fmt.Sprintf("the truncation horizon H + %vs is beyond 2^40 ticks of the 1/%d s timescale", deadlineSlack, sc.Den())}
	}
	tm.Horizon = h + slack
	for pi, p := range procs {
		if tm.Jobs += int(h/tm.Period[pi]) * p.Burst(); tm.Jobs > MaxFrameJobs {
			break // counted far enough for the frame-size guard
		}
	}
	return tm, nil
}

// lowerValue lowers one value onto sc under the tick guard.
func lowerValue(sc rational.Scale, kind, subject, what string, v Time) (int64, error) {
	t, ok := sc.GuardedTicks(v)
	if !ok {
		return 0, &TimescaleError{Kind: kind, Subject: subject,
			Reason: fmt.Sprintf("%s %vs is beyond 2^40 ticks of the 1/%d s timescale", what, v, sc.Den())}
	}
	return t, nil
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// JobTicks is a task graph's timing on its integer timescale: every job's
// A_i, C_i and D_i as whole ticks of Scale, index-aligned with Jobs. It is
// read-only.
type JobTicks struct {
	Scale                   rational.Scale
	Arrival, WCET, Deadline []int64
}

// Ticks returns the task graph's per-job tick table. Derive fills it while
// simulating the frame, on the scale of LowerTiming. A task graph built by
// hand lowers its jobs' own arrivals, WCETs and deadlines on first use and
// gets a *TimescaleError when they do not fit. The result is memoized like
// Edges.
func (tg *TaskGraph) Ticks() (*JobTicks, error) {
	if tg.ticks == nil && tg.ticksErr == nil {
		tg.ticks, _, tg.ticksErr = lowerJobs(tg.name(), tg.Jobs, rational.One, nil)
	}
	return tg.ticks, tg.ticksErr
}

// TicksWithStarts lowers the jobs and one start time per job onto the
// coarsest refinement of the graph's timescale that also holds the
// starts: the timescale on which a schedule whose starts lie between the
// graph's ticks is checked. It returns the refined table and the starts
// in ticks; the error is a *TimescaleError naming the first job with a
// value beyond the guard.
func (tg *TaskGraph) TicksWithStarts(starts []Time) (*JobTicks, []int64, error) {
	jt, err := tg.Ticks()
	if err != nil {
		return nil, nil, err
	}
	return lowerJobs(tg.name(), tg.Jobs, rational.New(1, jt.Scale.Den()), starts)
}

// lowerJobs lowers the jobs onto the coarsest scale that holds all their
// values and tick, under the same guards as LowerTiming. starts, when not
// nil, holds one start time per job, lowered into the second result.
func lowerJobs(name string, jobs []*Job, tick Time, starts []Time) (*JobTicks, []int64, error) {
	n := len(jobs)
	if n > MaxFrameJobs {
		return nil, nil, &TimescaleError{Kind: "network", Subject: name,
			Reason: fmt.Sprintf("its %d jobs exceed 2^20", n)}
	}
	vals := make([]rational.Rat, 0, 3*n+len(starts)+1)
	vals = append(append(vals, tick), starts...)
	for _, j := range jobs {
		vals = append(vals, j.Arrival, j.WCET, j.Deadline)
	}
	sc, ok := rational.CommonScale(vals)
	if !ok {
		return nil, nil, &TimescaleError{Kind: "network", Subject: name,
			Reason: "the common denominator of its job times overflows int64"}
	}
	jt := &JobTicks{Scale: sc, Arrival: make([]int64, n), WCET: make([]int64, n), Deadline: make([]int64, n)}
	var startT []int64
	if starts != nil {
		startT = make([]int64, n)
	}
	for i, j := range jobs {
		var err error
		if startT != nil {
			if startT[i], err = lowerValue(sc, "job", j.Name(), "start", starts[i]); err != nil {
				return nil, nil, err
			}
		}
		if jt.Arrival[i], err = lowerValue(sc, "job", j.Name(), "arrival", j.Arrival); err != nil {
			return nil, nil, err
		}
		if jt.WCET[i], err = lowerValue(sc, "job", j.Name(), "WCET", j.WCET); err != nil {
			return nil, nil, err
		}
		if jt.Deadline[i], err = lowerValue(sc, "job", j.Name(), "deadline", j.Deadline); err != nil {
			return nil, nil, err
		}
	}
	return jt, startT, nil
}

// name is the network name, or "task graph" for graphs built by hand.
func (tg *TaskGraph) name() string {
	if tg.Net != nil {
		return tg.Net.Name
	}
	return "task graph"
}

package staticflow

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/rational"
	"repro/internal/taskgraph"
)

// DemandJob is one job of the server-transformed network PN' over one
// hyperperiod frame, reduced to the triple the processor-demand
// criterion needs: arrival, absolute deadline and WCET. The parameters
// replicate the task-graph derivation exactly (server period
// substitution, corrected server deadlines d_p − T'_p, truncation to H).
type DemandJob struct {
	Proc     string
	Arrival  Time
	Deadline Time
	WCET     Time
}

// DemandInterval is one closed window [Start, End] with the execution
// demand it must fully contain and the processor count that demand
// forces: ceil(Demand / (End − Start)).
type DemandInterval struct {
	Start, End Time
	Demand     Time
	Processors int
}

// DemandReport is the result of the processor-demand analysis.
type DemandReport struct {
	// Hyperperiod is the frame length H of PN' (server periods
	// substituted).
	Hyperperiod Time
	// Jobs is one frame of PN' jobs in generation order.
	Jobs []DemandJob
	// LowerBound is the least processor count compatible with the
	// demand criterion: max over all windows of ceil(demand/length).
	// It never exceeds the exact sched.MinProcessors (the differential
	// suite pins this).
	LowerBound int
	// Critical is a witness window achieving LowerBound.
	Critical DemandInterval
}

// Demand computes the processor-demand lower bound of a schedulable
// network: every job whose scheduling window [A_i, D_i] lies inside
// [a, d] contributes its full WCET to the demand of that window, so at
// least ceil(demand/(d−a)) processors are needed. Windows are evaluated
// at all (arrival, deadline) corner pairs, where the maximum is
// attained. The network must pass ValidateSchedulable.
func Demand(net *core.Network) (*DemandReport, error) {
	if err := net.ValidateSchedulable(); err != nil {
		return nil, fmt.Errorf("staticflow: %w", err)
	}
	jobs, h, err := demandJobs(net)
	if err != nil {
		return nil, err
	}
	rep := &DemandReport{Hyperperiod: h, Jobs: jobs}
	rep.LowerBound, rep.Critical = demandSweep(jobs, -1)
	return rep, nil
}

// Violations returns, for a platform of m processors, every corner
// window whose demand exceeds m·(length): the per-interval
// demand-bound schedulability verdicts. An empty result means the
// demand criterion cannot rule out an m-processor schedule.
func (r *DemandReport) Violations(m int) []DemandInterval {
	_, _, all := demandSweepAll(r.Jobs, m)
	return all
}

// demandJobs expands one hyperperiod frame of PN' into (A, D, C)
// triples, mirroring taskgraph.simulateFrame's formulas.
func demandJobs(net *core.Network) ([]DemandJob, Time, error) {
	substitute := make(map[string]Time)
	serverPeriod := make(map[string]Time)
	for _, p := range net.Processes() {
		if !p.IsSporadic() {
			continue
		}
		u, err := net.UserOf(p.Name)
		if err != nil {
			return nil, rational.Zero, fmt.Errorf("staticflow: %w", err)
		}
		tp := u.Period()
		if !tp.Less(p.Deadline()) {
			_, frac, ok := taskgraph.FractionalServerPeriod(tp, p.Deadline())
			if !ok {
				return nil, rational.Zero, fmt.Errorf(
					"staticflow: cannot find server period for sporadic %q", p.Name)
			}
			tp = frac
		}
		substitute[p.Name] = tp
		serverPeriod[p.Name] = tp
	}
	h, err := core.Hyperperiod(net, substitute)
	if err != nil {
		return nil, rational.Zero, fmt.Errorf("staticflow: %w", err)
	}
	var jobs []DemandJob
	for _, p := range net.Processes() {
		period := p.Period()
		if tp, ok := substitute[p.Name]; ok {
			period = tp
		}
		for t := rational.Zero; t.Less(h); t = t.Add(period) {
			d := t.Add(p.Deadline())
			if tp, ok := serverPeriod[p.Name]; ok {
				d = d.Sub(tp)
			}
			d = d.Min(h)
			for b := 0; b < p.Burst(); b++ {
				jobs = append(jobs, DemandJob{Proc: p.Name, Arrival: t, Deadline: d, WCET: p.WCET})
			}
		}
	}
	return jobs, h, nil
}

// demandSweep evaluates demand at every (arrival, deadline) corner and
// returns the maximum forced processor count with a witness window.
// With m >= 0 it instead collects every window forcing more than m
// processors (see demandSweepAll).
func demandSweep(jobs []DemandJob, m int) (int, DemandInterval) {
	lower, critical, _ := demandSweepAll(jobs, m)
	return lower, critical
}

func demandSweepAll(jobs []DemandJob, m int) (int, DemandInterval, []DemandInterval) {
	arrivals := distinctTimes(jobs, func(j DemandJob) Time { return j.Arrival })
	deadlines := distinctTimes(jobs, func(j DemandJob) Time { return j.Deadline })
	dIdx := make(map[string]int, len(deadlines))
	for i, d := range deadlines {
		dIdx[d.String()] = i
	}
	// Bucket job WCETs by deadline; jobs join their bucket once the
	// descending arrival scan passes their arrival, so bucket prefix
	// sums over deadlines ≤ d equal demand(a, d) exactly.
	byArrival := make(map[string][]DemandJob, len(arrivals))
	for _, j := range jobs {
		key := j.Arrival.String()
		byArrival[key] = append(byArrival[key], j)
	}
	buckets := make([]Time, len(deadlines))
	for i := range buckets {
		buckets[i] = rational.Zero
	}
	best := 0
	var critical DemandInterval
	var violations []DemandInterval
	for ai := len(arrivals) - 1; ai >= 0; ai-- {
		a := arrivals[ai]
		for _, j := range byArrival[a.String()] {
			if j.WCET.Sign() > 0 {
				i := dIdx[j.Deadline.String()]
				buckets[i] = buckets[i].Add(j.WCET)
			}
		}
		cum := rational.Zero
		for di, d := range deadlines {
			cum = cum.Add(buckets[di])
			if !a.Less(d) || cum.Sign() <= 0 {
				continue
			}
			length := d.Sub(a)
			need := int(cum.Div(length).Ceil())
			if need > best {
				best = need
				critical = DemandInterval{Start: a, End: d, Demand: cum, Processors: need}
			}
			if m >= 0 && need > m {
				violations = append(violations, DemandInterval{Start: a, End: d, Demand: cum, Processors: need})
			}
		}
	}
	return best, critical, violations
}

// distinctTimes returns the sorted distinct values of one job field.
func distinctTimes(jobs []DemandJob, get func(DemandJob) Time) []Time {
	seen := make(map[string]bool, len(jobs))
	var out []Time
	for _, j := range jobs {
		t := get(j)
		key := t.String()
		if !seen[key] {
			seen[key] = true
			out = append(out, t)
		}
	}
	sortTimes(out)
	return out
}

func sortTimes(ts []Time) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
}

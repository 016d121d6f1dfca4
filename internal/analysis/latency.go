package analysis

import (
	"fmt"
	"math"

	"repro/internal/plan"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// ChainLatency measures end-to-end latencies along a processing chain from
// an executed runtime report — the "end-to-end communication timing
// constraints" the paper's introduction names as a key reason determinism
// matters. For every frame, the latency of the k-th sample is the time from
// the arrival of the chain's first process's k-th job to the completion of
// the last process's k-th job.
//
// All chain processes must be periodic with the same rate (equal jobs per
// frame), so the k-th jobs correspond sample-for-sample; multi-rate chains
// need application-level correlation instead.
type ChainLatency struct {
	Chain   []string
	Samples int
	Worst   Time
	Best    Time
	// Sum allows callers to derive the average without floats:
	// average = Sum / Samples.
	Sum Time
}

// Average returns Sum/Samples and whether any sample was measured; with
// zero samples the average is undefined and ok is false.
func (c ChainLatency) Average() (Time, bool) {
	if c.Samples == 0 {
		return rational.Zero, false
	}
	return c.Sum.DivInt(int64(c.Samples)), true
}

// String renders the measurement.
func (c ChainLatency) String() string {
	avg, ok := c.Average()
	if !ok {
		return fmt.Sprintf("chain %v: no samples", c.Chain)
	}
	return fmt.Sprintf("chain %v: %d samples, best %vs, worst %vs, avg %vs",
		c.Chain, c.Samples, c.Best, c.Worst, avg)
}

// MeasureChainLatency extracts latencies from a report produced by Plan.Run
// (or Plan.RunConcurrent) for the given chain of process names.
func MeasureChainLatency(rep *plan.Report, chain []string) (ChainLatency, error) {
	out := ChainLatency{Chain: chain}
	if len(chain) < 2 {
		return out, fmt.Errorf("analysis: chain needs at least two processes")
	}
	tg := rep.Schedule.TG
	var perFrame int64 = -1
	for _, proc := range chain {
		p := tg.Net.Process(proc)
		if p == nil {
			return out, fmt.Errorf("analysis: unknown process %q", proc)
		}
		if p.IsSporadic() {
			return out, fmt.Errorf("analysis: chain process %q is sporadic; latency needs periodic stages", proc)
		}
		count := int64(len(tg.JobsOf(tg.Net.Pid(proc))))
		if perFrame == -1 {
			perFrame = count
		} else if count != perFrame {
			return out, fmt.Errorf("analysis: chain processes have different rates (%d vs %d jobs per frame)", perFrame, count)
		}
	}

	h := tg.Hyperperiod
	first, last := chain[0], chain[len(chain)-1]
	// Each job's executed ends, one per frame, in report order.
	ends := make([][]int64, len(tg.Jobs))
	for _, e := range rep.Entries {
		ends[e.Job] = append(ends[e.Job], e.End)
	}
	for f := 0; f < rep.Frames; f++ {
		base := h.MulInt(int64(f))
		for k := int64(1); k <= perFrame; k++ {
			jFirst := tg.Job(first, k)
			jLast := tg.Job(last, k)
			if jFirst == nil || jLast == nil {
				return out, fmt.Errorf("analysis: missing job %s[%d] or %s[%d]", first, k, last, k)
			}
			release := base.Add(jFirst.Arrival)
			endList := ends[jLast.Index]
			if f >= len(endList) {
				return out, fmt.Errorf("analysis: report lacks execution %d of %s", f, jLast.Name())
			}
			latency := rep.Time(endList[f]).Sub(release)
			if out.Samples == 0 || out.Worst.Less(latency) {
				out.Worst = latency
			}
			if out.Samples == 0 || latency.Less(out.Best) {
				out.Best = latency
			}
			out.Sum = out.Sum.Add(latency)
			out.Samples++
		}
	}
	return out, nil
}

// StaticChainLatency bounds the worst-case end-to-end latency of a chain
// directly from a static schedule: for each k, last-stage completion minus
// first-stage arrival, maximized over the frame (valid for WCET execution;
// the runtime's synchronisation can only finish earlier).
func StaticChainLatency(s *sched.Schedule, chain []string) (Time, error) {
	if len(chain) < 2 {
		return rational.Zero, fmt.Errorf("analysis: chain needs at least two processes")
	}
	tg := s.TG
	jt, err := s.Ticks()
	if err != nil {
		return rational.Zero, err
	}
	first, last := chain[0], chain[len(chain)-1]
	firsts, lasts := tg.JobsOf(tg.Net.Pid(first)), tg.JobsOf(tg.Net.Pid(last))
	if min(len(firsts), len(lasts)) == 0 {
		return rational.Zero, fmt.Errorf("analysis: no matching jobs for chain %v", chain)
	}
	// The worst of e_last[k] − A_first[k] over k, in ticks.
	worst := int64(math.MinInt64)
	for k := range min(len(firsts), len(lasts)) {
		l, f := lasts[k], firsts[k]
		worst = max(worst, s.Assign[l].Start+jt.WCET[l]-jt.Arrival[f])
	}
	return jt.Scale.FromTicks(worst), nil
}

// WCETMargin finds the largest uniform WCET scaling factor λ (as a rational
// with the given denominator resolution) such that the task graph scaled by
// λ still admits a feasible schedule on m processors. λ > 1 means slack; a
// result below 1 means the nominal WCETs are already infeasible. The search
// is a bisection over [0, ceiling].
func WCETMargin(tg *taskgraph.TaskGraph, m int, resolution int64) (rational.Rat, error) {
	if resolution < 2 {
		return rational.Zero, fmt.Errorf("analysis: resolution must be >= 2")
	}
	feasibleAt := func(lambda rational.Rat) bool {
		scaled, err := scaleGraph(tg, lambda)
		if err != nil {
			return false
		}
		_, err = sched.FindFeasible(scaled, m)
		return err == nil
	}
	// Exponential search for an infeasible ceiling.
	lo := rational.Zero
	hi := rational.One
	if !feasibleAt(hi) {
		// Nominal already infeasible: search below 1.
		hi = rational.One
	} else {
		for feasibleAt(hi) {
			lo = hi
			hi = hi.MulInt(2)
			if rational.FromInt(1024).Less(hi) {
				return lo, nil // effectively unbounded
			}
		}
	}
	// Bisection until the interval is below 1/resolution.
	eps := rational.New(1, resolution)
	for eps.Less(hi.Sub(lo)) {
		mid := lo.Add(hi).DivInt(2)
		if feasibleAt(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// scaleGraph rebuilds the task graph with every WCET multiplied by lambda,
// via a structural network clone (behaviours do not influence scheduling).
func scaleGraph(tg *taskgraph.TaskGraph, lambda rational.Rat) (*taskgraph.TaskGraph, error) {
	if lambda.Sign() <= 0 {
		return nil, fmt.Errorf("analysis: non-positive scale")
	}
	return taskgraph.Derive(tg.Net.CloneStructure(lambda))
}

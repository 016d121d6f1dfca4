package plan

import (
	"errors"
	"fmt"

	"repro/internal/rational"
)

// maxRunTick bounds every value lowerRun produces: the run horizon
// Frames·H, each ready time, frame overhead, C_i and D_i, and the sum of
// all execution times of the run (bounded by Frames·ΣC_i under WCET
// execution). Every instant the engines compute is a ready time or frame
// start plus a sum of execution times, so it stays below 3·2^60 and int64
// arithmetic never overflows.
const maxRunTick = int64(1) << 60

// RunTiming is one run's timing on int64 ticks: lowerRun fills it from the
// invocation plan, the overhead model and the execution-time model, and
// every engine reads it — Run, RunConcurrent and, through Lower, the
// mixed-criticality runtime — so none computes with a rational until the
// report is written. The timescale refines the plan's (JobTicks.Scale) by
// the factor k the denominators of the run's own inputs require; with WCET
// execution, zero overhead and events on the plan's grid, k is 1. A
// RunState keeps one across runs and its slices are arenas. It is
// read-only outside this package.
type RunTiming struct {
	p  *Plan
	sc rational.Scale
	k  int64 // run ticks per plan tick
	h  int64 // H in run ticks
	// avail[f] is the instant frame f's jobs may start: f·H plus the
	// frame overhead.
	avail []int64
	// ready[f*n+i] is JobPlan.Ready of the (frame, job) instance.
	ready []int64
	// exec[f*n+i] is the execution time of an executed instance; empty
	// when every job runs for its WCET.
	exec []int64

	// Rational inputs gathered for the refinement.
	vals, over, execVals []Time
}

// Start is the instant frame f's jobs may start: f·H plus the frame
// overhead.
func (t *RunTiming) Start(f int) int64 { return t.avail[f] }

// Ready is the instant job i of frame f is invoked (JobPlan.Ready).
func (t *RunTiming) Ready(f, i int) int64 { return t.ready[f*t.p.n+i] }

// Exec is the execution time of job i in frame f.
func (t *RunTiming) Exec(f, i int) int64 {
	if len(t.exec) > 0 {
		return t.exec[f*t.p.n+i]
	}
	return t.WCET(i)
}

// WCET is job i's C_i.
func (t *RunTiming) WCET(i int) int64 { return t.p.ticks.WCET[i] * t.k }

// Deadline is the absolute deadline f·H + D_i of job i in frame f.
func (t *RunTiming) Deadline(f, i int) int64 {
	return int64(f)*t.h + t.p.ticks.Deadline[i]*t.k
}

// Time converts an instant in ticks to exact time.
func (t *RunTiming) Time(ticks int64) Time { return t.sc.FromTicks(ticks) }

// Scale is the run's timescale.
func (t *RunTiming) Scale() rational.Scale { return t.sc }

// Lower plans a run's invocations and lowers its timing onto int64 ticks:
// the lowering Run and RunConcurrent read, for an engine outside this
// package that sweeps the plan's jobs itself. The invocation plan is
// indexed [frame*n + job index]. Every instant such an engine derives as a
// ready time or frame start plus a sum of the run's execution times fits
// int64.
func (p *Plan) Lower(cfg Config) ([]JobPlan, *RunTiming, error) {
	if cfg.Frames < 1 {
		return nil, nil, fmt.Errorf("rt: %d frames", cfg.Frames)
	}
	flat, err := p.inv.planInto(&planScratch{}, cfg.Frames, cfg.SporadicEvents)
	if err != nil {
		return nil, nil, err
	}
	rt := &RunTiming{}
	if err := p.lowerRun(rt, flat, cfg); err != nil {
		return nil, nil, err
	}
	return flat, rt, nil
}

// lowerRun lowers one run onto int64 ticks: the ready times of the
// invocation plan flat, the frame overheads and, when cfg.Exec is set, one
// execution time per executed instance. The timescale is the coarsest
// refinement of the plan's that holds all of them (rational.CommonScale).
// It fails with an rt: error when an execution time is negative or the
// run does not fit the maxRunTick guard.
func (p *Plan) lowerRun(rt *RunTiming, flat []JobPlan, cfg Config) error {
	n, frames, jt := p.n, cfg.Frames, p.ticks

	// Gather the values that may lie between the plan's ticks. Periodic
	// and skipped instances are ready at f·H + A_i, on the grid.
	rt.vals = append(rt.vals[:0], rational.New(1, jt.Scale.Den()))
	for idx := range flat {
		if flat[idx].EventIndex > 0 {
			rt.vals = append(rt.vals, flat[idx].Ready)
		}
	}
	rt.over = rt.over[:0]
	for f := 0; f < frames && !cfg.Overhead.Zero(); f++ {
		rt.over = append(rt.over, cfg.Overhead.FrameOverhead(f, n))
	}
	rt.execVals = rt.execVals[:0]
	for f := 0; f < frames && cfg.Exec != nil; f++ {
		for i, j := range p.tg.Jobs {
			var c Time
			if !flat[f*n+i].Skip {
				if c = cfg.Exec(j, f); c.Sign() < 0 {
					return fmt.Errorf("rt: negative execution time %v for %s", c, j.Name())
				}
			}
			rt.execVals = append(rt.execVals, c)
		}
	}

	sc, fits := rational.CommonScale(rt.vals, rt.over, rt.execVals)
	k := sc.Den() / jt.Scale.Den()
	fits = fits && p.hTicks <= maxRunTick/k/int64(frames) && p.maxJobTicks <= maxRunTick/k &&
		(cfg.Exec != nil || p.wcetTicks <= maxRunTick/k/int64(frames))
	if !fits {
		return errRunTicks
	}
	rt.p, rt.sc, rt.k, rt.h = p, sc, k, p.hTicks*k
	rt.avail = resize(rt.avail, frames)
	rt.ready = resize(rt.ready, frames*n)
	for f := 0; f < frames; f++ {
		base := int64(f) * rt.h
		rt.avail[f] = base
		if len(rt.over) > 0 {
			o, ok := runTicks(sc, rt.over[f])
			rt.avail[f], fits = base+o, fits && ok
		}
		for i := 0; i < n; i++ {
			idx := f*n + i
			if flat[idx].EventIndex == 0 {
				rt.ready[idx] = base + jt.Arrival[i]*k
				continue
			}
			t, ok := runTicks(sc, flat[idx].Ready)
			rt.ready[idx], fits = t, fits && ok
		}
	}
	rt.exec = resize(rt.exec, len(rt.execVals))
	total := int64(0)
	for idx, v := range rt.execVals {
		c, ok := runTicks(sc, v)
		total += c
		rt.exec[idx], fits = c, fits && ok && total <= maxRunTick
	}
	if !fits {
		return errRunTicks
	}
	return nil
}

var errRunTicks = errors.New("rt: the run's timing does not fit int64 ticks: its horizon, event times, overheads and execution times must share a timescale and lie within 2^60 ticks of it")

// runTicks lowers v onto sc under the maxRunTick guard.
func runTicks(sc rational.Scale, v Time) (int64, bool) {
	t, ok := sc.Ticks(v)
	return t, ok && -maxRunTick <= t && t <= maxRunTick
}

// fitsRunTicks reports whether vals and the run horizon frames·h fit one
// int64 timescale that refines tick, within the maxRunTick guard.
func fitsRunTicks(tick, h Time, frames int, vals []Time) bool {
	sc, ok := rational.CommonScale([]Time{tick, h}, vals)
	ht, okH := sc.Ticks(h)
	ok = ok && okH && ht <= maxRunTick/int64(frames)
	for _, v := range vals {
		_, okV := runTicks(sc, v)
		ok = ok && okV
	}
	return ok
}

// resize returns s resized to n elements, reallocating only when its
// capacity is short. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

package integration

// The string-keyed runtime engines: the original implementations of the
// zero-delay executor, the invocation planner, the discrete-event
// static-order runtime and the goroutine-per-processor runtime, kept
// verbatim as differential-testing oracles for the interned engines in
// internal/core and internal/plan (plan_differential_test.go,
// plan_fuzz_test.go).

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// runZeroDelayReference is the original string-keyed zero-delay executor,
// the oracle for the interned engine: the order of
// zeroDelayJobsReference, with every lookup going through process names.
func runZeroDelayReference(net *core.Network, horizon core.Time, opts core.ZeroDelayOptions) (*core.ZeroDelayResult, error) {
	jobs, err := zeroDelayJobsReference(net, horizon, opts.SporadicEvents, opts.Seed)
	if err != nil {
		return nil, err
	}
	m, err := core.NewMachine(net, core.MachineOptions{Inputs: opts.Inputs, RecordTrace: opts.RecordTrace})
	if err != nil {
		return nil, err
	}
	var lastTime core.Time
	first := true
	for _, j := range jobs {
		if first || !j.Time.Equal(lastTime) {
			m.Wait(j.Time)
			lastTime = j.Time
			first = false
		}
		if err := m.ExecJob(j.Proc, j.Time); err != nil {
			return nil, fmt.Errorf("core: zero-delay run of %q: %w", net.Name, err)
		}
	}
	return &core.ZeroDelayResult{
		Jobs:     jobs,
		Trace:    m.Trace(),
		Outputs:  m.Outputs(),
		Channels: m.ChannelSnapshot(),
	}, nil
}

// planInvocationsReference is the original string-keyed invocation planner,
// the oracle for the compiled boundary-index tables: it rebuilds windowed
// maps keyed by boundary Time strings per run.
func planInvocationsReference(tg *taskgraph.TaskGraph, frames int, events map[string][]core.Time) ([][]plan.JobPlan, error) {
	h := tg.Hyperperiod
	horizon := h.MulInt(int64(frames))

	// windowed[proc][boundary.String()] = events whose window ends at
	// that absolute boundary, in time order.
	type plannedEvent struct {
		time  core.Time
		index int // 1-based position in the process's event sequence
	}
	windowed := make(map[string]map[string][]plannedEvent)
	for proc, times := range events {
		p := tg.Net.Process(proc)
		if p == nil {
			return nil, fmt.Errorf("rt: sporadic events for unknown process %q", proc)
		}
		if !p.IsSporadic() {
			return nil, fmt.Errorf("rt: sporadic events for non-sporadic process %q", proc)
		}
		tp, ok := tg.ServerPeriod[proc]
		if !ok {
			return nil, fmt.Errorf("rt: process %q has no server period in the task graph", proc)
		}
		sorted := make([]core.Time, len(times))
		copy(sorted, times)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
		if err := p.Gen.CheckSporadic(sorted); err != nil {
			return nil, fmt.Errorf("rt: process %q: %w", proc, err)
		}
		m := make(map[string][]plannedEvent)
		for idx, tau := range sorted {
			if !tau.Less(horizon) {
				return nil, fmt.Errorf("rt: event for %q at %v is beyond the run horizon %v", proc, tau, horizon)
			}
			var b core.Time
			if tg.IncludeRight[proc] {
				// Window (b − T', b]: b = ⌈τ/T'⌉·T'.
				b = tp.MulInt(tau.Div(tp).Ceil())
			} else {
				// Window [b − T', b): b = (⌊τ/T'⌋ + 1)·T'.
				b = tp.MulInt(tau.Div(tp).Floor() + 1)
			}
			key := b.String()
			m[key] = append(m[key], plannedEvent{time: tau, index: idx + 1})
		}
		windowed[proc] = m
	}

	out := make([][]plan.JobPlan, frames)
	for f := 0; f < frames; f++ {
		base := h.MulInt(int64(f))
		invs := make([]plan.JobPlan, len(tg.Jobs))
		for i, j := range tg.Jobs {
			abs := base.Add(j.Arrival)
			if !j.Server {
				invs[i] = plan.JobPlan{Ready: abs}
				continue
			}
			ws := windowed[j.Proc][abs.String()]
			if j.SlotInSubset <= len(ws) {
				ev := ws[j.SlotInSubset-1]
				invs[i] = plan.JobPlan{Ready: ev.time, EventIndex: ev.index}
			} else {
				invs[i] = plan.JobPlan{Ready: abs, Skip: true}
			}
		}
		out[f] = invs
	}

	// Every event must land in some executed subset; events whose
	// boundary falls beyond the run are lost, which the caller almost
	// certainly did not intend.
	for proc, m := range windowed {
		for key := range m {
			b, err := rational.Parse(key)
			if err != nil {
				return nil, fmt.Errorf("rt: internal boundary parse: %w", err)
			}
			if !b.Less(horizon) {
				return nil, fmt.Errorf("rt: events for %q in the window ending at %v are handled only after the run's last frame; extend Frames", proc, b)
			}
		}
	}
	return out, nil
}

// runReference is the original string-keyed discrete-event engine, the
// differential-testing oracle for Plan.Run: invocation planning through
// windowed maps, machine access through process names, and a run-global
// data pass.
func runReference(s *sched.Schedule, cfg plan.Config) (*plan.Report, error) {
	tg := s.TG
	if cfg.Frames < 1 {
		return nil, fmt.Errorf("rt: %d frames", cfg.Frames)
	}
	exec := cfg.Exec
	if exec == nil {
		exec = platform.WCETExec()
	}
	invs, err := planInvocationsReference(tg, cfg.Frames, cfg.SporadicEvents)
	if err != nil {
		return nil, err
	}
	procOrder := rationalProcessorOrder(s)
	order, err := combinedOrderReference(s, procOrder)
	if err != nil {
		return nil, fmt.Errorf("rt: %w", err)
	}
	machine, err := core.NewMachine(tg.Net, core.MachineOptions{
		Inputs:      cfg.Inputs,
		RecordTrace: cfg.RecordTrace,
	})
	if err != nil {
		return nil, err
	}

	n := len(tg.Jobs)
	procChainPrev := s.ChainPrev(procOrder) // previous job index on the same processor, or -1

	report := &plan.Report{Schedule: s, Frames: cfg.Frames}
	var entries []refEntry
	h := tg.Hyperperiod
	lastFinishOnProc := make([]core.Time, s.M) // carry-over across frames
	finish := make([]core.Time, n)
	// In pipelined mode, cross-frame precedence: a job must wait for the
	// previous frame's jobs of every related process. prevProcFinish
	// holds each process's latest finish in the previous frame.
	prevProcFinish := make(map[string]core.Time)

	type dataJob struct {
		frame int
		index int
		now   core.Time
	}
	var dataJobs []dataJob

	for f := 0; f < cfg.Frames; f++ {
		base := h.MulInt(int64(f))
		avail := base.Add(cfg.Overhead.FrameOverhead(f, n))
		for _, i := range order {
			j := tg.Jobs[i]
			inv := invs[f][i]
			start := avail
			if start.Less(inv.Ready) {
				start = inv.Ready
			}
			if prev := procChainPrev[i]; prev >= 0 {
				if start.Less(finish[prev]) {
					start = finish[prev]
				}
			} else if carry := lastFinishOnProc[s.Assign[i].Proc]; start.Less(carry) {
				start = carry
			}
			for _, p := range tg.Pred[i] {
				if start.Less(finish[p]) {
					start = finish[p]
				}
			}
			if cfg.Pipelined {
				for q, fin := range prevProcFinish {
					if tg.Related(j.Pid, tg.Net.Pid(q)) && start.Less(fin) {
						start = fin
					}
				}
			}
			if inv.Skip {
				finish[i] = start
				report.Skipped = append(report.Skipped, plan.Skip{Job: j, Frame: f})
				continue
			}
			c := exec(j, f)
			if c.Sign() < 0 {
				return nil, fmt.Errorf("rt: negative execution time %v for %s", c, j.Name())
			}
			finish[i] = start.Add(c)
			entries = append(entries, refEntry{sched.GanttEntry{
				Proc:  s.Assign[i].Proc,
				Label: j.Name(),
				Start: start,
				End:   finish[i],
			}, i})
			deadline := base.Add(j.Deadline)
			if deadline.Less(finish[i]) {
				report.Misses = append(report.Misses, plan.Miss{
					Job: j, Frame: f, Finish: finish[i], Deadline: deadline,
				})
				if late := finish[i].Sub(deadline); report.MaxLateness.Less(late) {
					report.MaxLateness = late
				}
			}
			if report.Makespan.Less(finish[i]) {
				report.Makespan = finish[i]
			}
			dataJobs = append(dataJobs, dataJob{frame: f, index: i, now: inv.Ready})
		}
		for p := 0; p < s.M; p++ {
			// The frame's last finish on each processor carries over.
			last := lastFinishOnProc[p]
			for _, i := range procOrder[p] {
				if last.Less(finish[i]) {
					last = finish[i]
				}
			}
			lastFinishOnProc[p] = last
		}
		if cfg.Pipelined {
			clear(prevProcFinish)
			for i, j := range tg.Jobs {
				if prevProcFinish[j.Proc].Less(finish[i]) {
					prevProcFinish[j.Proc] = finish[i]
				}
			}
		}
	}

	// Execute the data semantics in the zero-delay total order
	// (frame, <_J index): precedence and mutual-exclusion synchronization
	// guarantee this matches the real execution order of every pair of
	// jobs that share state.
	sort.SliceStable(dataJobs, func(a, b int) bool {
		if dataJobs[a].frame != dataJobs[b].frame {
			return dataJobs[a].frame < dataJobs[b].frame
		}
		return dataJobs[a].index < dataJobs[b].index
	})
	var lastWait core.Time
	haveWait := false
	for _, dj := range dataJobs {
		if !haveWait || !dj.now.Equal(lastWait) {
			machine.Wait(dj.now)
			lastWait = dj.now
			haveWait = true
		}
		if err := machine.ExecJob(tg.Jobs[dj.index].Proc, dj.now); err != nil {
			return nil, err
		}
	}

	report.Outputs = machine.Outputs()
	report.Trace = machine.Trace()
	return tickReport(report, entries, machine), nil
}

// refEntry is an executed interval of a reference engine: exact times and
// the job's index in the task graph.
type refEntry struct {
	sched.GanttEntry
	job int
}

// tickReport returns r with the reference engine's exact intervals lowered
// onto the coarsest int64 timescale holding them all, the form plan.Report
// carries, and machine's final channel state.
func tickReport(r *plan.Report, entries []refEntry, machine *core.Machine) *plan.Report {
	times := make([]core.Time, 0, 2*len(entries))
	for _, e := range entries {
		times = append(times, e.Start, e.End)
	}
	sc, ok := rational.CommonScale(times)
	if !ok {
		panic("reference intervals share no int64 timescale")
	}
	out := plan.NewReport(r.Schedule, r.Frames, sc, machine)
	for _, e := range entries {
		start, okStart := sc.Ticks(e.Start)
		end, okEnd := sc.Ticks(e.End)
		if !okStart || !okEnd {
			panic("reference interval off its own timescale")
		}
		out.Entries = append(out.Entries, plan.Entry{Proc: int32(e.Proc), Job: int32(e.job), Start: start, End: end})
	}
	out.Misses, out.Skipped, out.Outputs, out.Trace = r.Misses, r.Skipped, r.Outputs, r.Trace
	out.Makespan, out.MaxLateness = r.Makespan, r.MaxLateness
	return out
}

// vclock is a cooperative virtual clock shared by the processor goroutines
// of runConcurrentReference. Time advances only when every live goroutine
// is blocked, jumping to the earliest requested wake-up.
type vclock struct {
	mu       sync.Mutex
	cond     *sync.Cond
	now      core.Time
	live     int // goroutines not yet finished
	blocked  int // goroutines currently inside a wait
	timeReqs map[int]core.Time
	// doneWaits records, per blocked goroutine, the completion flag it is
	// waiting for. A waiter whose flag is already set still counts as
	// blocked until it reacquires the mutex after a broadcast; advancing
	// time past that window would be wrong, so maybeAdvance treats such
	// waiters as runnable.
	doneWaits map[int]int64
	done      map[int64]bool // (frame*jobs + index) completion flags
	err       error
}

func newVclock(procs int) *vclock {
	c := &vclock{
		live:      procs,
		timeReqs:  make(map[int]core.Time),
		doneWaits: make(map[int]int64),
		done:      make(map[int64]bool),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// maybeAdvance runs with c.mu held: when every live goroutine is blocked
// and none of them can already make progress, either advance to the
// earliest requested time or declare a deadlock.
func (c *vclock) maybeAdvance() {
	if c.live == 0 || c.blocked < c.live {
		return
	}
	for _, key := range c.doneWaits {
		if c.done[key] {
			return // a waiter is about to wake and run at the current time
		}
	}
	if len(c.timeReqs) == 0 {
		if c.err == nil {
			c.err = fmt.Errorf("rt: virtual-clock deadlock: all processors wait on precedence that never resolves")
		}
		c.cond.Broadcast()
		return
	}
	min := core.Time{}
	first := true
	for _, t := range c.timeReqs {
		if first || t.Less(min) {
			min = t
			first = false
		}
	}
	if c.now.Less(min) {
		c.now = min
	}
	c.cond.Broadcast()
}

// waitUntil blocks the goroutine id until virtual time reaches t.
func (c *vclock) waitUntil(id int, t core.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.now.Less(t) && c.err == nil {
		c.timeReqs[id] = t
		c.blocked++
		c.maybeAdvance()
		// maybeAdvance may have advanced the clock to our own request
		// (we were the last goroutine to block); its broadcast happened
		// before we entered Wait, so re-check to avoid a lost wake-up.
		if c.now.Less(t) && c.err == nil {
			c.cond.Wait()
		}
		c.blocked--
		delete(c.timeReqs, id)
	}
	return c.err
}

// waitDone blocks the goroutine id until the given job instance has
// completed.
func (c *vclock) waitDone(id int, key int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.done[key] && c.err == nil {
		c.doneWaits[id] = key
		c.blocked++
		c.maybeAdvance()
		// Re-check: maybeAdvance may have declared a deadlock error,
		// whose broadcast precedes our Wait.
		if !c.done[key] && c.err == nil {
			c.cond.Wait()
		}
		c.blocked--
		delete(c.doneWaits, id)
	}
	return c.err
}

// markDone flags a job instance complete and wakes all waiters.
func (c *vclock) markDone(key int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done[key] = true
	c.cond.Broadcast()
}

// Now returns the current virtual time.
func (c *vclock) Now() core.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Err returns the run's failure, if any, under the clock's lock.
func (c *vclock) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// fail aborts the run with an error.
func (c *vclock) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
	c.cond.Broadcast()
}

// finish retires a goroutine from the clock's accounting.
func (c *vclock) finish() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.live--
	c.maybeAdvance()
}

// runConcurrentReference is the original goroutine-per-processor engine,
// the differential-testing oracle for Plan.RunConcurrent, with string-keyed
// machine access and map-based completion flags. It exists to demonstrate
// (and stress under the race detector) that the FPPN synchronization rules
// alone — not any global sequentialization — deliver deterministic outputs.
func runConcurrentReference(s *sched.Schedule, cfg plan.Config) (*plan.Report, error) {
	tg := s.TG
	if cfg.Frames < 1 {
		return nil, fmt.Errorf("rt: %d frames", cfg.Frames)
	}
	if cfg.Pipelined {
		return nil, fmt.Errorf("rt: RunConcurrent does not support pipelined frames; use Run")
	}
	exec := cfg.Exec
	if exec == nil {
		exec = platform.WCETExec()
	}
	invs, err := planInvocationsReference(tg, cfg.Frames, cfg.SporadicEvents)
	if err != nil {
		return nil, err
	}
	procOrder := rationalProcessorOrder(s)
	if _, err := combinedOrderReference(s, procOrder); err != nil {
		return nil, fmt.Errorf("rt: %w", err)
	}
	machine, err := core.NewMachine(tg.Net, core.MachineOptions{Inputs: cfg.Inputs})
	if err != nil {
		return nil, err
	}

	n := len(tg.Jobs)
	clock := newVclock(s.M)
	key := func(frame, index int) int64 { return int64(frame)*int64(n) + int64(index) }

	var dataMu sync.Mutex // serializes Machine access between processors

	type result struct {
		entries []refEntry
		misses  []plan.Miss
		skipped []plan.Skip
	}
	results := make([]result, s.M)
	var wg sync.WaitGroup

	for p := 0; p < s.M; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer clock.finish()
			res := &results[p]
			h := tg.Hyperperiod
			for f := 0; f < cfg.Frames; f++ {
				base := h.MulInt(int64(f))
				avail := base.Add(cfg.Overhead.FrameOverhead(f, n))
				if err := clock.waitUntil(p, avail); err != nil {
					return
				}
				for _, i := range procOrder[p] {
					j := tg.Jobs[i]
					inv := invs[f][i]
					// Synchronize invocation.
					if err := clock.waitUntil(p, inv.Ready); err != nil {
						return
					}
					// Synchronize precedence.
					for _, pre := range tg.Pred[i] {
						if err := clock.waitDone(p, key(f, pre)); err != nil {
							return
						}
					}
					if inv.Skip {
						res.skipped = append(res.skipped, plan.Skip{Job: j, Frame: f})
						clock.markDone(key(f, i))
						continue
					}
					// Execute.
					start := clock.Now()
					dataMu.Lock()
					// The per-process invocation count must follow the
					// frame-global job order; precedence sync already
					// guarantees it for every pair of jobs that share
					// state, so any interleaving of the remaining
					// (unrelated) jobs is safe here.
					execErr := machine.ExecJob(j.Proc, inv.Ready)
					dataMu.Unlock()
					if execErr != nil {
						clock.fail(execErr)
						return
					}
					c := exec(j, f)
					if c.Sign() < 0 {
						clock.fail(fmt.Errorf("rt: negative execution time %v for %s", c, j.Name()))
						return
					}
					end := start.Add(c)
					if err := clock.waitUntil(p, end); err != nil {
						return
					}
					res.entries = append(res.entries, refEntry{sched.GanttEntry{
						Proc: p, Label: j.Name(), Start: start, End: end,
					}, i})
					if deadline := base.Add(j.Deadline); deadline.Less(end) {
						res.misses = append(res.misses, plan.Miss{Job: j, Frame: f, Finish: end, Deadline: deadline})
					}
					clock.markDone(key(f, i))
				}
			}
		}(p)
	}
	wg.Wait()
	if err := clock.Err(); err != nil {
		return nil, err
	}

	report := &plan.Report{Schedule: s, Frames: cfg.Frames}
	var entries []refEntry
	for _, res := range results {
		entries = append(entries, res.entries...)
		report.Misses = append(report.Misses, res.misses...)
		report.Skipped = append(report.Skipped, res.skipped...)
	}
	sort.Slice(entries, func(a, b int) bool {
		ea, eb := entries[a], entries[b]
		if !ea.Start.Equal(eb.Start) {
			return ea.Start.Less(eb.Start)
		}
		if ea.Proc != eb.Proc {
			return ea.Proc < eb.Proc
		}
		return ea.Label < eb.Label
	})
	sort.Slice(report.Misses, func(a, b int) bool {
		ma, mb := report.Misses[a], report.Misses[b]
		if ma.Frame != mb.Frame {
			return ma.Frame < mb.Frame
		}
		return ma.Job.Index < mb.Job.Index
	})
	sort.Slice(report.Skipped, func(a, b int) bool {
		sa, sb := report.Skipped[a], report.Skipped[b]
		if sa.Frame != sb.Frame {
			return sa.Frame < sb.Frame
		}
		return sa.Job.Index < sb.Job.Index
	})
	for _, e := range entries {
		if report.Makespan.Less(e.End) {
			report.Makespan = e.End
		}
	}
	for _, m := range report.Misses {
		if late := m.Finish.Sub(m.Deadline); report.MaxLateness.Less(late) {
			report.MaxLateness = late
		}
	}
	report.Outputs = machine.Outputs()
	return tickReport(report, entries, machine), nil
}

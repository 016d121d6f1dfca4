package plan

import "math"

// Run executes the static-order policy as an exact discrete-event
// computation against the compiled plan and returns the full report. It
// produces byte-identical results to the legacy string-keyed engine kept as
// a test oracle in internal/integration, which the differential suite
// asserts.
//
// The report and everything it references come from the state's pools: they
// are valid until the next Run/RunConcurrent call on the same RunState.
// After the first call warms the pools, steady-state replay of the same
// configuration shape runs without allocating.
func (rs *RunState) Run(cfg Config) (*Report, error) {
	p := rs.p
	flat, machine, err := rs.prepare("Run", cfg, cfg.RecordTrace)
	if err != nil {
		return nil, err
	}
	rt := &rs.timing

	n := p.n
	tg := p.tg
	report := rs.openReport(cfg.Frames, machine)
	finish := zeroed(&rs.finish, n)
	lastFinishOnProc := zeroed(&rs.lastFinishOnProc, p.S.M) // carry-over across frames
	// In pipelined mode, cross-frame precedence: a job must wait for the
	// previous frame's jobs of every related process. prevProcFinish
	// holds each process's latest finish in the previous frame, by pid.
	var prevProcFinish []int64
	if cfg.Pipelined {
		prevProcFinish = zeroed(&rs.prevProcFinish, p.cn.NumProcesses())
	}
	var makespan, maxLate int64

	// The data semantics run in the zero-delay total order
	// (frame, <_J index): precedence and mutual-exclusion synchronization
	// guarantee this matches the real execution order of every pair of
	// jobs that share state. Since the timing sweep never touches the
	// machine, the per-frame data pass below performs the same machine
	// action sequence as a run-global pass would.
	lastWait := int64(math.MinInt64)

	for f := 0; f < cfg.Frames; f++ {
		avail := rt.avail[f]
		invs := flat[f*n : (f+1)*n]
		ready := rt.ready[f*n : (f+1)*n]
		for _, i := range p.order {
			start := max(avail, ready[i])
			proc := p.jobProc[i]
			if prev := p.procChainPrev[i]; prev >= 0 {
				start = max(start, finish[prev])
			} else {
				start = max(start, lastFinishOnProc[proc])
			}
			for _, pre := range tg.Pred[i] {
				start = max(start, finish[pre])
			}
			if cfg.Pipelined && f > 0 {
				pid := p.jobPid[i]
				start = max(start, prevProcFinish[pid])
				for _, q := range tg.RelatedPids(pid) {
					start = max(start, prevProcFinish[q])
				}
			}
			if invs[i].Skip {
				finish[i] = start
				report.Skipped = append(report.Skipped, Skip{Job: tg.Jobs[i], Frame: f})
				continue
			}
			end := start + rt.Exec(f, i)
			finish[i] = end
			report.Entries = append(report.Entries, Entry{
				Proc: int32(proc), Job: int32(i), Start: start, End: end,
			})
			if deadline := rt.Deadline(f, i); end > deadline {
				report.Misses = append(report.Misses, Miss{
					Job: tg.Jobs[i], Frame: f, Finish: rt.sc.FromTicks(end), Deadline: rt.sc.FromTicks(deadline),
				})
				maxLate = max(maxLate, end-deadline)
			}
			makespan = max(makespan, end)
		}
		for proc := 0; proc < p.S.M; proc++ {
			// The frame's last finish on each processor carries over.
			last := lastFinishOnProc[proc]
			for _, i := range p.procOrder[proc] {
				last = max(last, finish[i])
			}
			lastFinishOnProc[proc] = last
		}
		if cfg.Pipelined {
			clear(prevProcFinish)
			for i := 0; i < n; i++ {
				pid := p.jobPid[i]
				prevProcFinish[pid] = max(prevProcFinish[pid], finish[i])
			}
		}
		// Data pass for this frame, in <_J index order.
		for i := 0; i < n; i++ {
			inv := &invs[i]
			if inv.Skip {
				continue
			}
			if ready[i] != lastWait {
				machine.Wait(inv.Ready)
				lastWait = ready[i]
			}
			if err := machine.ExecJobID(p.jobPid[i], inv.Ready); err != nil {
				return nil, err
			}
		}
	}
	return rs.closeReport(makespan, maxLate), nil
}

// zeroed resizes *buf to n zero elements, reusing its storage.
func zeroed[T any](buf *[]T, n int) []T {
	*buf = resize(*buf, n)
	clear(*buf)
	return *buf
}

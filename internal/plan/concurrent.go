package plan

// This file implements Plan.RunConcurrent: the static-order policy executed
// by one goroutine per processor against a virtual clock, the shape of the
// paper's multi-thread Linux runtime. Unlike Run (an exact discrete-event
// computation), the goroutines here really race with each other; only the
// synchronize-invocation and synchronize-precedence waits of Section IV
// order them. Tests assert that the outputs are nevertheless identical to
// the zero-delay reference — Proposition 2.1 made executable.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
)

// vclock is a cooperative virtual clock shared by the processor goroutines.
// Time advances only when every live goroutine is blocked, jumping to the
// earliest requested wake-up.
type vclock struct {
	mu       sync.Mutex
	cond     *sync.Cond
	now      int64 // ticks of the run's timescale
	live     int   // goroutines not yet finished
	blocked  int   // goroutines currently inside a wait
	timeReqs map[int]int64
	// doneWaits records, per blocked goroutine, the completion flag it is
	// waiting for. A waiter whose flag is already set still counts as
	// blocked until it reacquires the mutex after a broadcast; advancing
	// time past that window would be wrong, so maybeAdvance treats such
	// waiters as runnable.
	doneWaits map[int]int64
	done      []bool // (frame*jobs + index) completion flags
	err       error
}

func newVclock(procs, flags int) *vclock {
	c := &vclock{
		live:      procs,
		timeReqs:  make(map[int]int64),
		doneWaits: make(map[int]int64),
		done:      make([]bool, flags),
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
	earliest := int64(math.MaxInt64)
	for _, t := range c.timeReqs {
		earliest = min(earliest, t)
	}
	c.now = max(c.now, earliest)
	c.cond.Broadcast()
}

// waitUntil blocks the goroutine id until virtual time reaches t.
func (c *vclock) waitUntil(id int, t int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.now < t && c.err == nil {
		c.timeReqs[id] = t
		c.blocked++
		c.maybeAdvance()
		// maybeAdvance may have advanced the clock to our own request
		// (we were the last goroutine to block); its broadcast happened
		// before we entered Wait, so re-check to avoid a lost wake-up.
		if c.now < t && c.err == nil {
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
func (c *vclock) Now() int64 {
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

// RunConcurrent executes the compiled plan with one goroutine per
// processor. Functionally it is equivalent to Run; timing-wise it produces
// the same start/finish instants in virtual time. It exists to demonstrate
// (and stress under the race detector) that the FPPN synchronization rules
// alone — not any global sequentialization — deliver deterministic outputs.
func (rs *RunState) RunConcurrent(cfg Config) (*Report, error) {
	p := rs.p
	if cfg.Pipelined {
		return nil, fmt.Errorf("rt: RunConcurrent does not support pipelined frames; use Run")
	}
	flat, machine, err := rs.prepare("RunConcurrent", cfg, false)
	if err != nil {
		return nil, err
	}
	rt := &rs.timing

	n := p.n
	tg := p.tg
	clock := newVclock(p.S.M, cfg.Frames*n)
	key := func(frame, index int) int64 { return int64(frame)*int64(n) + int64(index) }

	var dataMu sync.Mutex // serializes Machine access between processors

	type result struct {
		entries           []Entry
		misses            []Miss
		skipped           []Skip
		makespan, maxLate int64
	}
	results := make([]result, p.S.M)
	var wg sync.WaitGroup

	for proc := 0; proc < p.S.M; proc++ {
		wg.Add(1)
		go func(proc int) {
			defer wg.Done()
			defer clock.finish()
			res := &results[proc]
			for f := 0; f < cfg.Frames; f++ {
				if err := clock.waitUntil(proc, rt.avail[f]); err != nil {
					return
				}
				invs := flat[f*n : (f+1)*n]
				for _, i := range p.procOrder[proc] {
					j := tg.Jobs[i]
					inv := &invs[i]
					// Synchronize invocation.
					if err := clock.waitUntil(proc, rt.ready[f*n+i]); err != nil {
						return
					}
					// Synchronize precedence.
					for _, pre := range tg.Pred[i] {
						if err := clock.waitDone(proc, key(f, pre)); err != nil {
							return
						}
					}
					if inv.Skip {
						res.skipped = append(res.skipped, Skip{Job: j, Frame: f})
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
					execErr := machine.ExecJobID(p.jobPid[i], inv.Ready)
					dataMu.Unlock()
					if execErr != nil {
						clock.fail(execErr)
						return
					}
					end := start + rt.Exec(f, i)
					if err := clock.waitUntil(proc, end); err != nil {
						return
					}
					res.entries = append(res.entries, Entry{
						Proc: int32(proc), Job: int32(i), Start: start, End: end,
					})
					if deadline := rt.Deadline(f, i); end > deadline {
						res.misses = append(res.misses, Miss{Job: j, Frame: f, Finish: rt.sc.FromTicks(end), Deadline: rt.sc.FromTicks(deadline)})
						res.maxLate = max(res.maxLate, end-deadline)
					}
					res.makespan = max(res.makespan, end)
					clock.markDone(key(f, i))
				}
			}
		}(proc)
	}
	wg.Wait()
	if err := clock.Err(); err != nil {
		return nil, err
	}

	report := rs.openReport(cfg.Frames, machine)
	var makespan, maxLate int64
	for _, res := range results {
		report.Entries = append(report.Entries, res.entries...)
		report.Misses = append(report.Misses, res.misses...)
		report.Skipped = append(report.Skipped, res.skipped...)
		makespan, maxLate = max(makespan, res.makespan), max(maxLate, res.maxLate)
	}
	// Order by (start, processor, job name): only zero-length intervals
	// tie on start and processor, so only they format names.
	slices.SortFunc(report.Entries, func(a, b Entry) int {
		if c := cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Proc, b.Proc)); c != 0 {
			return c
		}
		return strings.Compare(tg.Jobs[a.Job].Name(), tg.Jobs[b.Job].Name())
	})
	slices.SortFunc(report.Misses, func(a, b Miss) int {
		return cmp.Or(cmp.Compare(a.Frame, b.Frame), cmp.Compare(a.Job.Index, b.Job.Index))
	})
	slices.SortFunc(report.Skipped, func(a, b Skip) int {
		return cmp.Or(cmp.Compare(a.Frame, b.Frame), cmp.Compare(a.Job.Index, b.Job.Index))
	})
	return rs.closeReport(makespan, maxLate), nil
}

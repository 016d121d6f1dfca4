package plan

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
)

// RunState is the per-run mutable execution context of a compiled plan.
// A Plan is immutable after Compile and safe to share between goroutines;
// everything a run mutates lives here: the pooled data machine and the
// arenas the planner and report writer fill.
// A RunState is NOT safe for concurrent use: give each goroutine its own.
//
// Reusing one RunState across runs is the steady-state replay path: after
// the first run warms the arenas, subsequent runs of the same shape execute
// without allocating.
//
// Invariant — report lifetime: the *Report (and the plan slices from
// planInto) returned by a run on this state aliases the state's arenas and
// is valid only until the next Run/RunConcurrent call on the same state;
// callers that need to keep a report across runs must deep-copy it first.
// Pool owners must therefore serialize or copy a request's report before
// the state is released back to the free pool; internal/serve's
// Entry.replay does so by handing the report to a callback between the
// run and the release.
type RunState struct {
	p *Plan

	// released tracks pool membership for owners that recycle states
	// through a free pool (Acquire/Release): 1 while the state is parked
	// in the pool, 0 while checked out. Accessed atomically so a buggy
	// double-release from two goroutines still hands the state to the
	// pool exactly once.
	released uint32

	// machine is the pooled data machine: built on the first run,
	// Reset (not reconstructed) on every following one, so its FIFO
	// rings and output sample slices keep the size the largest past run
	// grew them to.
	machine *core.Machine
	// scratch holds the invocation planner's arenas (flat plan, event
	// spans, sort buffer).
	scratch planScratch

	// Report arenas: the report itself plus every slice it carries, grown
	// once and refilled per run.
	report  Report
	entries []Entry
	misses  []Miss
	skipped []Skip

	// timing is the run's lowering onto ticks, read by both engines.
	timing RunTiming
	// Timing scratch of Run, in ticks: per-job finish times, per-processor
	// carry-over, per-process previous-frame finish (pipelined mode).
	finish           []int64
	lastFinishOnProc []int64
	prevProcFinish   []int64

	// Pooled storage of the report's Channels snapshot: the map and the
	// one backing array its value slices are carved from.
	snapMap  map[string][]core.Value
	snapVals []core.Value
}

// NewRunState returns a fresh execution context for the plan. Repeated-
// execution callers (cmd/fppnsim -frames N, benchmark loops, one daemon
// request handler) should create one RunState and reuse it across runs;
// one-shot callers can use the Plan.Run / Plan.RunConcurrent conveniences,
// which allocate a RunState per call.
func (p *Plan) NewRunState() *RunState {
	return &RunState{p: p}
}

// Acquire marks the state checked out of an owner-managed free pool. Pool
// owners call it on every state handed to a request — fresh or recycled —
// so a later Release is accepted exactly once.
func (rs *RunState) Acquire() {
	atomic.StoreUint32(&rs.released, 0)
}

// Release marks the state as returned to an owner-managed free pool and
// reports whether this call performed the hand-back: the first Release
// after an Acquire returns true, every further one returns false. Owners
// must park the state (sync.Pool.Put or equivalent) only when Release
// returns true — that makes an accidental double-release idempotent
// instead of handing one state to two concurrent requests.
func (rs *RunState) Release() bool {
	return atomic.CompareAndSwapUint32(&rs.released, 0, 1)
}

// Released reports whether the state is currently parked in an
// owner-managed free pool.
func (rs *RunState) Released() bool {
	return atomic.LoadUint32(&rs.released) == 1
}

// prepare is the prelude both engines share: it checks the run, plans its
// invocations, lowers its timing onto rs.timing and resets the pooled
// machine.
func (rs *RunState) prepare(engine string, cfg Config, recordTrace bool) ([]JobPlan, *core.Machine, error) {
	if cfg.Frames < 1 {
		return nil, nil, fmt.Errorf("rt: %d frames", cfg.Frames)
	}
	if rs.Released() {
		return nil, nil, fmt.Errorf("rt: %s on a RunState parked in its owner's pool; Acquire it first", engine)
	}
	flat, err := rs.p.inv.planInto(&rs.scratch, cfg.Frames, cfg.SporadicEvents)
	if err != nil {
		return nil, nil, err
	}
	if err := rs.p.lowerRun(&rs.timing, flat, cfg); err != nil {
		return nil, nil, err
	}
	machine, err := rs.acquireMachine(core.MachineOptions{
		Inputs:      cfg.Inputs,
		RecordTrace: recordTrace,
	})
	return flat, machine, err
}

// openReport resets the state's report for a run of frames frames on
// machine, its entry arena sized for every job of every frame.
func (rs *RunState) openReport(frames int, machine *core.Machine) *Report {
	if n := frames * rs.p.n; cap(rs.entries) < n {
		rs.entries = make([]Entry, 0, n)
	}
	r := &rs.report
	*r = Report{Schedule: rs.p.S, Frames: frames, Scale: rs.timing.sc, machine: machine, rs: rs,
		Entries: rs.entries[:0], Misses: rs.misses[:0], Skipped: rs.skipped[:0]}
	return r
}

// closeReport converts the run's makespan and largest lateness, takes the
// machine's outputs and trace, keeps the report's slices as the state's
// arenas and, like a fresh state, leaves empty miss and skip lists nil.
func (rs *RunState) closeReport(makespan, maxLate int64) *Report {
	r := &rs.report
	if makespan > 0 {
		r.Makespan = r.Time(makespan)
	}
	if maxLate > 0 {
		r.MaxLateness = r.Time(maxLate)
	}
	rs.entries, rs.misses, rs.skipped = r.Entries, r.Misses, r.Skipped
	if len(r.Misses) == 0 {
		r.Misses = nil
	}
	if len(r.Skipped) == 0 {
		r.Skipped = nil
	}
	r.Outputs, r.Trace = r.machine.Outputs(), r.machine.Trace()
	return r
}

// acquireMachine returns the pooled machine reset for a new run, building
// it on first use.
func (rs *RunState) acquireMachine(opts core.MachineOptions) (*core.Machine, error) {
	if rs.machine == nil {
		m, err := core.NewMachineCompiled(rs.p.cn, opts)
		if err != nil {
			return nil, err
		}
		rs.machine = m
		return m, nil
	}
	if err := rs.machine.Reset(opts); err != nil {
		return nil, err
	}
	return rs.machine, nil
}

// Run executes the plan in a fresh per-call RunState. The plan itself is
// never mutated, so concurrent Run calls on one shared Plan are safe.
func (p *Plan) Run(cfg Config) (*Report, error) {
	return p.NewRunState().Run(cfg)
}

// RunConcurrent executes the plan with one goroutine per processor in a
// fresh per-call RunState. The plan itself is never mutated, so concurrent
// RunConcurrent calls on one shared Plan are safe.
func (p *Plan) RunConcurrent(cfg Config) (*Report, error) {
	return p.NewRunState().RunConcurrent(cfg)
}

// Package plan lowers a validated network + task graph + static schedule
// into a dense, index-based execution plan for the online static-order
// policy of Section IV of the DATE 2015 FPPN paper.
//
// The frame structure of an FPPN run is fully known at compile time: the
// task graph fixes the job set and precedence of one hyperperiod frame, the
// schedule fixes per-processor static orders, and frame f is frame 0
// shifted by f·H. A Plan therefore interns every name to a contiguous
// integer ID once — process and channel names to the compiled network's
// pids/cids, job membership to index slices — and replays frames against
// preallocated tables, so the per-job cost of Run and RunConcurrent is free
// of map lookups, string keys and per-frame re-planning.
//
// This is the module's one runtime: every caller compiles a schedule with
// Compile and runs the Plan (or a pooled RunState). Repeated-execution
// callers (cmd/fppnsim -frames N, benchmark loops, the generated
// timed-automata interpreter) should call Compile once and reuse the Plan.
package plan

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// Time aliases the exact rational time type.
type Time = rational.Rat

// Config parameterizes a runtime execution.
type Config struct {
	// Frames is the number of hyperperiod frames to execute (>= 1).
	Frames int
	// SporadicEvents maps sporadic process names to absolute event time
	// stamps over the whole run ([0, Frames·H)).
	SporadicEvents map[string][]Time
	// Exec yields actual execution times; nil means WCET.
	Exec platform.ExecModel
	// Overhead is the frame-management overhead model.
	Overhead platform.OverheadModel
	// Inputs supplies external input samples (indexed by invocation count
	// across the whole run).
	Inputs map[string][]core.Value
	// RecordTrace enables action-trace recording in the data machine.
	RecordTrace bool
	// Pipelined executes overlapping frames: jobs of frame f+1 may start
	// while frame f's tail is still running on other processors, with
	// cross-frame precedence enforced between related processes. Use
	// with schedules derived with a DeadlineSlack and validated by
	// sched.ValidatePipelined. Only Run supports it; RunConcurrent
	// rejects it.
	Pipelined bool
}

// Miss is a deadline violation observed at run time.
type Miss struct {
	Job      *taskgraph.Job
	Frame    int
	Finish   Time // absolute completion time
	Deadline Time // absolute required time fH + D_i
}

func (m Miss) String() string {
	return fmt.Sprintf("frame %d: %s finished %v > deadline %v (late by %v)",
		m.Frame, m.Job.Name(), m.Finish, m.Deadline, m.Finish.Sub(m.Deadline))
}

// Skip records a server job marked false (no corresponding sporadic event).
type Skip struct {
	Job   *taskgraph.Job
	Frame int
}

// Entry is one executed interval: job Job (a task-graph index) ran on
// processor Proc from Start to End, in ticks of the report's Scale. It holds
// no pointers, so the garbage collector never scans an entry arena.
type Entry struct {
	Proc, Job  int32
	Start, End int64
}

// Report is the outcome of a runtime execution.
type Report struct {
	Schedule *sched.Schedule
	Frames   int
	// Scale is the run's timescale: Entries' instants are ticks of it.
	Scale rational.Scale
	// Entries holds the executed intervals in ticks; GanttEntries and Time
	// convert them to exact time for printing and export.
	Entries []Entry
	// Misses lists deadline violations in completion order.
	Misses []Miss
	// Skipped lists false-marked server jobs.
	Skipped []Skip
	// Outputs are the external output samples produced.
	Outputs map[string][]core.Sample
	// Trace is the recorded action trace (if enabled).
	Trace core.Trace
	// Makespan is the absolute completion time of the last job.
	Makespan Time
	// MaxLateness is the largest positive (finish − deadline), or zero.
	MaxLateness Time

	// machine holds the run's final channel state; rs, when set, is the
	// RunState whose pooled storage Channels snapshots it into.
	machine *core.Machine
	rs      *RunState
}

// NewReport returns an empty report, for an engine outside this package to
// fill, of a run of s over frames frames on timescale sc ending in m.
func NewReport(s *sched.Schedule, frames int, sc rational.Scale, m *core.Machine) *Report {
	return &Report{Schedule: s, Frames: frames, Scale: sc, machine: m}
}

// Time converts an instant of the report's Entries to exact time.
func (r *Report) Time(ticks int64) Time { return r.Scale.FromTicks(ticks) }

// GanttEntries returns the executed intervals in exact time, labelled with
// their job names, in Entries order.
func (r *Report) GanttEntries() []sched.GanttEntry {
	out := make([]sched.GanttEntry, len(r.Entries))
	for k, e := range r.Entries {
		out[k] = sched.GanttEntry{Proc: int(e.Proc), Label: r.Schedule.TG.Jobs[e.Job].Name(), Start: r.Time(e.Start), End: r.Time(e.End)}
	}
	return out
}

// Channels snapshots the final internal channel state. On a report of a
// RunState the snapshot is taken into the state's pooled storage: it is
// valid until the next Channels call or run on that state.
func (r *Report) Channels() map[string][]core.Value {
	if r.rs == nil {
		return r.machine.ChannelSnapshot()
	}
	r.rs.snapMap, r.rs.snapVals = r.machine.ChannelSnapshotInto(r.rs.snapMap, r.rs.snapVals)
	return r.rs.snapMap
}

// Gantt renders the executed intervals over the full run horizon.
func (r *Report) Gantt(width int) string {
	horizon := r.Schedule.TG.Hyperperiod.MulInt(int64(r.Frames))
	return sched.GanttChart(r.GanttEntries(), r.Schedule.M, horizon, width)
}

// Summary formats the headline numbers of the run.
func (r *Report) Summary() string {
	return fmt.Sprintf("%d frames on %d processors: %d intervals, %d deadline misses, %d skipped server jobs, makespan %v s",
		r.Frames, r.Schedule.M, len(r.Entries), len(r.Misses), len(r.Skipped), r.Makespan)
}

// JobPlan carries the resolved synchronize-invocation outcome for one job
// instance in one frame.
type JobPlan struct {
	// Ready is the absolute time the invocation synchronization
	// completes: the event time for invoked sporadic jobs (possibly
	// before A_i), fH + A_i for periodic jobs and for false jobs.
	Ready Time
	// Skip marks a false server job.
	Skip bool
	// EventIndex is, for executed server jobs, the 1-based position of
	// the corresponding sporadic event in the process's time-ordered
	// event sequence (0 for periodic jobs and skips). The generated
	// timed-automata system guards server-job execution on the event
	// counter reaching this value.
	EventIndex int
}

// sporadicTable is the compile-time boundary table of one sporadic process:
// everything the Fig. 2 window rules need, reduced to integer arithmetic on
// boundary indices. Boundary q (= the window ending at absolute time q·T')
// lands in frame q / nPerFrame, at the server subset q%nPerFrame + 1 of
// that frame.
type sporadicTable struct {
	tp           Time // server period T'
	includeRight bool // Fig. 2: (b−T', b] when p→u(p), [b−T', b) otherwise
	nPerFrame    int64
	burst        int64
	// jobAt[(subset-1)*burst + slot-1] = frame-0 job index of the server
	// job standing in for the slot-th event of the subset.
	jobAt []int
}

// invTables is the frame-0 invocation table shared by every run of a task
// graph: per-job arrivals and server coordinates plus per-sporadic-process
// boundary tables. Frame f's invocations are frame 0's shifted by f·H, so
// runs of any frame count replay this table instead of rebuilding
// string-keyed window maps per frame.
type invTables struct {
	tg        *taskgraph.TaskGraph
	h         Time
	tick      Time // one tick of the task graph's timescale
	n         int
	arrival   []Time // frame-relative A_i by job index
	serverIdx []int  // index into sporadics, or -1 for ordinary jobs
	slot      []int  // SlotInSubset (1-based) for server jobs
	subset    []int  // Subset (1-based) for server jobs
	sporadics []sporadicTable
	bySpid    []int // pid -> sporadics index, or -1 without a server period
}

func buildInvTables(tg *taskgraph.TaskGraph) (*invTables, error) {
	n := len(tg.Jobs)
	procs := tg.Net.Processes()
	it := &invTables{
		tg:        tg,
		h:         tg.Hyperperiod,
		n:         n,
		arrival:   make([]Time, n),
		serverIdx: make([]int, n),
		slot:      make([]int, n),
		subset:    make([]int, n),
		bySpid:    make([]int, len(procs)),
	}
	if jt, err := tg.Ticks(); err == nil {
		it.tick = rational.New(1, jt.Scale.Den())
	}
	for pid, p := range procs {
		it.bySpid[pid] = -1
		tp, ok := tg.ServerPeriod[p.Name]
		if !ok {
			continue
		}
		npf := it.h.Div(tp)
		if !npf.IsInt() {
			return nil, fmt.Errorf("rt: server period %v of %q does not divide the hyperperiod %v", tp, p.Name, it.h)
		}
		burst := int64(p.Burst())
		it.bySpid[pid] = len(it.sporadics)
		it.sporadics = append(it.sporadics, sporadicTable{
			tp:           tp,
			includeRight: tg.IncludeRight[p.Name],
			nPerFrame:    npf.Num(),
			burst:        burst,
			jobAt:        make([]int, npf.Num()*burst),
		})
	}
	for i, j := range tg.Jobs {
		if j.Pid < 0 || j.Pid >= len(procs) || procs[j.Pid].Name != j.Proc {
			return nil, fmt.Errorf("rt: job %s has pid %d, which does not name its process %q", j.Name(), j.Pid, j.Proc)
		}
		it.arrival[i] = j.Arrival
		it.serverIdx[i] = -1
		if j.Server {
			si := it.bySpid[j.Pid]
			if si < 0 {
				return nil, fmt.Errorf("rt: process %q has no server period in the task graph", j.Proc)
			}
			st := &it.sporadics[si]
			it.serverIdx[i] = si
			it.slot[i] = j.SlotInSubset
			it.subset[i] = j.Subset
			st.jobAt[int64(j.Subset-1)*st.burst+int64(j.SlotInSubset-1)] = i
		}
	}
	return it, nil
}

// plannedEvent is one sporadic event resolved to its 1-based position in
// the process's time-ordered event sequence.
type plannedEvent struct {
	time  Time
	index int
}

// planScratch holds the arenas of the invocation planner. A RunState keeps
// one across runs, so steady-state replay fills the same flat plan and event
// spans instead of reallocating them; Plan.Lower passes a fresh one.
type planScratch struct {
	flat   []JobPlan
	sorted []Time // event sort buffer, one process at a time
	// Per sporadic process (indexed like invTables.sporadics): the run's
	// planned events in time order alongside the boundary index q each was
	// assigned to. q is nondecreasing in event time, so evq is sorted and
	// the events of boundary q form the contiguous span found by a binary
	// search — the flat-slice replacement of the old map[q][]plannedEvent.
	evs [][]plannedEvent
	evq [][]int64
}

// searchInt64 returns the smallest index i with a[i] >= q, or len(a).
func searchInt64(a []int64, q int64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// planInto distributes the run's sporadic events to server subsets per the
// boundary rules of Fig. 2 and materializes the invocation outcome of every
// (frame, job) instance as one flat slice indexed [frame*n + job index].
// All storage comes from sc; the returned slice aliases sc.flat and is
// valid until the next planInto call with the same scratch.
func (it *invTables) planInto(sc *planScratch, frames int, events map[string][]Time) ([]JobPlan, error) {
	horizon := it.h.MulInt(int64(frames))

	if len(sc.evs) != len(it.sporadics) {
		sc.evs = make([][]plannedEvent, len(it.sporadics))
		sc.evq = make([][]int64, len(it.sporadics))
	}
	for si := range sc.evs {
		sc.evs[si] = sc.evs[si][:0]
		sc.evq[si] = sc.evq[si][:0]
	}
	// An event whose window ends beyond the run is lost, which the caller
	// almost certainly did not intend. The legacy planner reports it only
	// after all events are distributed (beyond-horizon errors take
	// precedence), so record the first violation and fail at the end.
	lateErr := error(nil)
	for proc, times := range events {
		p := it.tg.Net.Process(proc)
		if p == nil {
			return nil, fmt.Errorf("rt: sporadic events for unknown process %q", proc)
		}
		if !p.IsSporadic() {
			return nil, fmt.Errorf("rt: sporadic events for non-sporadic process %q", proc)
		}
		si := it.bySpid[it.tg.Net.Pid(proc)]
		if si < 0 {
			return nil, fmt.Errorf("rt: process %q has no server period in the task graph", proc)
		}
		// The window arithmetic below is rational; events off every int64
		// timescale shared with the plan would overflow it.
		if !fitsRunTicks(it.tick, it.h, frames, times) {
			return nil, fmt.Errorf("rt: sporadic events for %q do not fit the run's integer timescale", proc)
		}
		st := &it.sporadics[si]
		sorted := append(sc.sorted[:0], times...)
		sc.sorted = sorted
		slices.SortFunc(sorted, Time.Cmp)
		if err := p.Gen.CheckSporadic(sorted); err != nil {
			return nil, fmt.Errorf("rt: process %q: %w", proc, err)
		}
		for idx, tau := range sorted {
			if !tau.Less(horizon) {
				return nil, fmt.Errorf("rt: event for %q at %v is beyond the run horizon %v", proc, tau, horizon)
			}
			var q int64
			if st.includeRight {
				// Window (b − T', b]: b = ⌈τ/T'⌉·T'.
				q = tau.Div(st.tp).Ceil()
			} else {
				// Window [b − T', b): b = (⌊τ/T'⌋ + 1)·T'.
				q = tau.Div(st.tp).Floor() + 1
			}
			if q >= int64(frames)*st.nPerFrame {
				if lateErr == nil {
					lateErr = fmt.Errorf("rt: events for %q in the window ending at %v are handled only after the run's last frame; extend Frames",
						proc, st.tp.MulInt(q))
				}
				continue
			}
			sc.evs[si] = append(sc.evs[si], plannedEvent{time: tau, index: idx + 1})
			sc.evq[si] = append(sc.evq[si], q)
		}
	}
	if lateErr != nil {
		return nil, lateErr
	}

	n := it.n
	if cap(sc.flat) < frames*n {
		sc.flat = make([]JobPlan, frames*n)
	}
	flat := sc.flat[:frames*n]
	sc.flat = flat
	for f := 0; f < frames; f++ {
		base := it.h.MulInt(int64(f))
		invs := flat[f*n : (f+1)*n]
		for i := 0; i < n; i++ {
			abs := base.Add(it.arrival[i])
			si := it.serverIdx[i]
			if si < 0 {
				invs[i] = JobPlan{Ready: abs}
				continue
			}
			st := &it.sporadics[si]
			q := int64(f)*st.nPerFrame + int64(it.subset[i]-1)
			// Boundary q's events are the contiguous evq span equal to q.
			evq := sc.evq[si]
			cand := searchInt64(evq, q) + it.slot[i] - 1
			if cand < len(evq) && evq[cand] == q {
				ev := sc.evs[si][cand]
				invs[i] = JobPlan{Ready: ev.time, EventIndex: ev.index}
			} else {
				invs[i] = JobPlan{Ready: abs, Skip: true}
			}
		}
	}
	return flat, nil
}

// Plan is a compiled execution plan: a static schedule lowered onto the
// interned network, ready for repeated Run/RunConcurrent calls. A Plan is
// immutable after Compile and safe for concurrent use.
type Plan struct {
	// S is the source schedule.
	S *sched.Schedule

	tg  *taskgraph.TaskGraph
	cn  *core.CompiledNet
	inv *invTables
	n   int // jobs per frame

	// ticks is the task graph's memoized tick table (A_i, C_i, D_i),
	// shared, not copied; hTicks is H on the same timescale. Runs lower
	// their own inputs onto a refinement of ticks.Scale (lowerRun).
	// wcetTicks is ΣC_i and maxJobTicks the largest |A_i| or |D_i|, the
	// bounds lowerRun checks a run's refinement against.
	ticks       *taskgraph.JobTicks
	hTicks      int64
	wcetTicks   int64
	maxJobTicks int64

	// order is the frame's combined topological order: task-graph
	// precedence plus per-processor static chains.
	order []int
	// procOrder[p] lists the frame's job indices on processor p in static
	// start order.
	procOrder [][]int
	// procChainPrev[i] is the previous job index on job i's processor, or
	// -1 for the first job of a chain.
	procChainPrev []int
	// jobProc[i] is the processor µ_i.
	jobProc []int
	// jobPid[i] is Jobs[i].Pid, checked against the compiled network.
	jobPid []int
}

// Compile lowers a static schedule into an execution plan. It validates
// the network once (interning it), checks the schedule against the
// precedence constraints and precomputes the frame-0 invocation tables.
func Compile(s *sched.Schedule) (*Plan, error) {
	return CompileOpts(s, CompileOptions{})
}

// CompileOptions tunes plan compilation.
type CompileOptions struct {
	// AllowUncoveredChannels compiles a plan for a network with
	// FP-coverage gaps (FPPN003), matching
	// taskgraph.Options.AllowUncoveredChannels on the derive side. The
	// resulting plan deliberately under-synchronizes the uncovered
	// channel accesses; it exists to be examined (hb.Verify), not run.
	AllowUncoveredChannels bool
}

// CompileOpts is Compile with explicit options.
func CompileOpts(s *sched.Schedule, opts CompileOptions) (*Plan, error) {
	tg := s.TG
	cn, err := core.CompileNetworkOpts(tg.Net, core.CompileOptions{
		AllowUncoveredChannels: opts.AllowUncoveredChannels,
	})
	if err != nil {
		return nil, err
	}
	it, err := buildInvTables(tg)
	if err != nil {
		return nil, err
	}
	jt, err := tg.Ticks()
	if err != nil {
		return nil, fmt.Errorf("rt: %w", err)
	}
	hTicks, ok := jt.Scale.GuardedTicks(tg.Hyperperiod)
	if !ok {
		return nil, fmt.Errorf("rt: hyperperiod %v is not a whole number of ticks of the task graph's 1/%d timescale",
			tg.Hyperperiod, jt.Scale.Den())
	}
	n := len(tg.Jobs)
	p := &Plan{
		S:       s,
		tg:      tg,
		cn:      cn,
		inv:     it,
		n:       n,
		ticks:   jt,
		hTicks:  hTicks,
		jobProc: make([]int, n),
		jobPid:  make([]int, n),
	}
	for i, j := range tg.Jobs {
		p.wcetTicks += jt.WCET[i]
		p.maxJobTicks = max(p.maxJobTicks, jt.Arrival[i], -jt.Arrival[i], jt.Deadline[i], -jt.Deadline[i])
		p.jobProc[i] = s.Assign[i].Proc
		p.jobPid[i] = j.Pid // in range and naming j.Proc: buildInvTables checked
	}
	p.procOrder = s.ProcessorOrder()
	p.procChainPrev = s.ChainPrev(p.procOrder)
	if p.order, err = s.CombinedOrder(p.procOrder); err != nil {
		return nil, fmt.Errorf("rt: %w", err)
	}
	return p, nil
}

// TaskGraph returns the task graph the plan executes.
func (p *Plan) TaskGraph() *taskgraph.TaskGraph { return p.tg }

// Compiled returns the interned network the plan executes against.
func (p *Plan) Compiled() *core.CompiledNet { return p.cn }

// Ticks returns the task graph's tick table (shared, read-only) and the
// hyperperiod H on its timescale; every compiled plan has both.
func (p *Plan) Ticks() (*taskgraph.JobTicks, int64) { return p.ticks, p.hTicks }

// ProcessorOrder returns the static chains the plan replays, from its one
// sched.Schedule.ProcessorOrder call (shared, read-only).
func (p *Plan) ProcessorOrder() [][]int { return p.procOrder }

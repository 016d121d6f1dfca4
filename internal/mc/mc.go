// Package mc prototypes the mixed-criticality extension the DATE 2015 FPPN
// paper lists as future work ("we plan to support ... mixed-critical
// scheduling"), in the style of the Vestal model used by the authors'
// follow-up line of work.
//
// Every process is assigned a criticality level. LO-criticality processes
// have a single WCET (their network WCET). HI-criticality processes have
// two budgets: the optimistic C_LO (the network WCET, e.g. from profiling)
// and a pessimistic C_HI >= C_LO.
//
// Build derives two static schedules over the same hyperperiod frame:
//
//	S_LO — all jobs with their C_LO budgets (normal mode), and
//	S_HI — only the HI jobs, with C_HI budgets (degraded mode).
//
// Run executes frames in LO mode following S_LO. The runtime monitors HI
// job budgets: the first time a HI job executes past its C_LO budget, the
// frame switches to HI mode at that instant. Jobs already started complete;
// LO jobs not yet started are dropped for the rest of the frame; the
// remaining HI jobs continue in S_HI's static order and mapping with C_HI
// budgets. The next frame boundary returns the system to LO mode.
//
// Functional determinism is preserved within each mode history: dropped LO
// jobs never touch their channels, and the executed subset still runs in
// the zero-delay order of the HI subnetwork.
package mc

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// Time aliases the exact rational time type.
type Time = rational.Rat

// Level is a criticality level.
type Level int

const (
	// LO is low criticality: jobs are dropped in degraded mode.
	LO Level = iota
	// HI is high criticality: jobs receive a pessimistic budget and
	// survive mode switches.
	HI
)

// String names the level.
func (l Level) String() string {
	if l == HI {
		return "HI"
	}
	return "LO"
}

// Spec assigns criticality levels and HI budgets.
type Spec struct {
	// Levels maps process names to criticality (absent = LO).
	Levels map[string]Level
	// WCETHi maps every HI process to its pessimistic budget C_HI
	// (must be >= the process WCET, which acts as C_LO).
	WCETHi map[string]Time
}

// Level returns the criticality of a process.
func (s Spec) Level(proc string) Level { return s.Levels[proc] }

// Schedule is a dual-criticality static schedule.
type Schedule struct {
	Net  *core.Network
	Spec Spec
	// Lo is the normal-mode schedule: every job, C_LO budgets.
	Lo *sched.Schedule
	// Hi is the degraded-mode schedule: HI jobs only, C_HI budgets,
	// derived from the HI subnetwork over the same hyperperiod.
	Hi *sched.Schedule
	// loOfHi maps HI-graph job indices to LO-graph job indices.
	loOfHi []int
	// loOrder and hiOrder are the combined static orders of Lo and Hi;
	// loPrev and hiPrev their chain-predecessor tables.
	loOrder, hiOrder []int
	loPrev, hiPrev   []int
}

// Build validates the specification, derives both task graphs and finds
// feasible schedules for both modes on m processors.
func Build(net *core.Network, spec Spec, m int) (*Schedule, error) {
	if err := net.ValidateSchedulable(); err != nil {
		return nil, fmt.Errorf("mc: %w", err)
	}
	hasHi := false
	for proc, lvl := range spec.Levels {
		if net.Process(proc) == nil {
			return nil, fmt.Errorf("mc: level assigned to unknown process %q", proc)
		}
		if lvl == HI {
			hasHi = true
			chi, ok := spec.WCETHi[proc]
			if !ok {
				return nil, fmt.Errorf("mc: HI process %q has no C_HI budget", proc)
			}
			if chi.Less(net.Process(proc).WCET) {
				return nil, fmt.Errorf("mc: process %q: C_HI %v < C_LO %v", proc, chi, net.Process(proc).WCET)
			}
		}
	}
	if !hasHi {
		return nil, fmt.Errorf("mc: specification has no HI process")
	}
	for proc := range spec.WCETHi {
		if spec.Levels[proc] != HI {
			return nil, fmt.Errorf("mc: C_HI budget for non-HI process %q", proc)
		}
	}

	loTG, err := taskgraph.Derive(net)
	if err != nil {
		return nil, fmt.Errorf("mc: LO graph: %w", err)
	}
	sLo, err := sched.FindFeasible(loTG, m)
	if err != nil {
		return nil, fmt.Errorf("mc: no feasible LO-mode schedule: %w", err)
	}

	hiNet, err := hiSubnetwork(net, spec)
	if err != nil {
		return nil, err
	}
	hiTG, err := taskgraph.Derive(hiNet)
	if err != nil {
		return nil, fmt.Errorf("mc: HI graph: %w", err)
	}
	if !hiTG.Hyperperiod.Equal(loTG.Hyperperiod) {
		return nil, fmt.Errorf("mc: HI subnetwork hyperperiod %v differs from the network's %v; align the HI process periods",
			hiTG.Hyperperiod, loTG.Hyperperiod)
	}
	sHi, err := sched.FindFeasible(hiTG, m)
	if err != nil {
		return nil, fmt.Errorf("mc: no feasible HI-mode schedule: %w", err)
	}

	mcs := &Schedule{
		Net: net, Spec: spec, Lo: sLo, Hi: sHi,
		loOfHi: make([]int, len(hiTG.Jobs)),
		loPrev: sLo.ChainPrev(),
		hiPrev: sHi.ChainPrev(),
	}
	if mcs.loOrder, err = sLo.CombinedOrder(); err != nil {
		return nil, fmt.Errorf("mc: LO schedule: %w", err)
	}
	if mcs.hiOrder, err = sHi.CombinedOrder(); err != nil {
		return nil, fmt.Errorf("mc: HI schedule: %w", err)
	}
	for i, j := range hiTG.Jobs {
		lo := loTG.Job(j.Proc, j.K)
		if lo == nil {
			return nil, fmt.Errorf("mc: HI job %s missing from the LO graph", j.Name())
		}
		mcs.loOfHi[i] = lo.Index
	}
	return mcs, nil
}

// hiSubnetwork extracts the HI-criticality processes with their C_HI
// budgets, the channels and priorities among them, and their external I/O.
func hiSubnetwork(net *core.Network, spec Spec) (*core.Network, error) {
	sub := core.NewNetwork(net.Name + "-hi")
	for _, p := range net.Processes() {
		if spec.Level(p.Name) != HI {
			continue
		}
		sub.AddProcess(p.Name, p.Gen, spec.WCETHi[p.Name], p.Behavior)
	}
	for _, c := range net.Channels() {
		if sub.Process(c.Writer) == nil || sub.Process(c.Reader) == nil {
			continue
		}
		nc := sub.Connect(c.Writer, c.Reader, c.Name, c.Kind)
		nc.Initial, nc.HasInitial = c.Initial, c.HasInitial
	}
	for _, e := range net.PriorityEdges() {
		if sub.Process(e[0]) != nil && sub.Process(e[1]) != nil {
			sub.Priority(e[0], e[1])
		}
	}
	if err := sub.ValidateSchedulable(); err != nil {
		return nil, fmt.Errorf("mc: HI subnetwork is not schedulable on its own (HI sporadic processes need HI users): %w", err)
	}
	return sub, nil
}

// ModeSwitch records one LO->HI transition.
type ModeSwitch struct {
	Frame int
	// At is the absolute switch instant (the overrunning job's start +
	// C_LO).
	At Time
	// Culprit is the job whose budget overran.
	Culprit *taskgraph.Job
}

// Report is the outcome of a mixed-criticality execution.
type Report struct {
	Frames   int
	Switches []ModeSwitch
	// DroppedLO counts LO jobs abandoned in degraded frames.
	DroppedLO int
	// HiMisses are deadline violations of HI jobs — the failures the
	// scheme is designed to prevent.
	HiMisses []plan.Miss
	// LoMisses are LO-job violations (only possible pre-switch).
	LoMisses []plan.Miss
	Entries  []sched.GanttEntry
	Skipped  []plan.Skip
	Outputs  map[string][]core.Sample
	Makespan Time
}

// Config parameterizes a mixed-criticality run. Exec gives the ACTUAL
// execution time of each job instance; HI jobs may exceed their C_LO
// budget (triggering a switch) but never C_HI.
type Config struct {
	Frames         int
	SporadicEvents map[string][]Time
	Exec           platform.ExecModel
	Inputs         map[string][]core.Value
}

// Run simulates the dual-mode static-order policy.
func Run(mcs *Schedule, cfg Config) (*Report, error) {
	if cfg.Frames < 1 {
		return nil, fmt.Errorf("mc: %d frames", cfg.Frames)
	}
	exec := cfg.Exec
	if exec == nil {
		exec = platform.WCETExec()
	}
	loTG := mcs.Lo.TG
	hiTG := mcs.Hi.TG
	invs, err := plan.PlanInvocations(loTG, cfg.Frames, cfg.SporadicEvents)
	if err != nil {
		return nil, err
	}
	machine, err := core.NewMachine(mcs.Net, core.MachineOptions{Inputs: cfg.Inputs})
	if err != nil {
		return nil, err
	}

	n := len(loTG.Jobs)
	h := loTG.Hyperperiod

	report := &Report{Frames: cfg.Frames}
	lastFinishOnProc := make([]Time, mcs.Lo.M)

	type done struct {
		executed bool
		finish   Time
	}
	type dataJob struct {
		frame, index int
		now          Time
	}
	var dataJobs []dataJob

	for f := 0; f < cfg.Frames; f++ {
		base := h.MulInt(int64(f))
		state := make([]done, n)
		physFree := append([]Time(nil), lastFinishOnProc...)

		// --- LO phase: execute in S_LO order, watching HI budgets.
		type placed struct {
			index      int
			start, end Time
			actual     Time
			skip       bool
		}
		var loPlaced []placed
		switchAt := Time{}
		switched := false
		var culprit *taskgraph.Job

		finish := make([]Time, n)
		started := make([]bool, n)
		for _, i := range mcs.loOrder {
			j := loTG.Jobs[i]
			inv := invs[f][i]
			start := base
			if start.Less(inv.Ready) {
				start = inv.Ready
			}
			if prev := mcs.loPrev[i]; prev >= 0 {
				if start.Less(finish[prev]) {
					start = finish[prev]
				}
			} else if carry := physFree[mcs.Lo.Assign[i].Proc]; start.Less(carry) {
				start = carry
			}
			for _, p := range loTG.Pred[i] {
				if start.Less(finish[p]) {
					start = finish[p]
				}
			}
			if inv.Skip {
				finish[i] = start
				started[i] = true
				loPlaced = append(loPlaced, placed{index: i, start: start, end: start, skip: true})
				continue
			}
			actual := exec(j, f)
			if actual.Sign() < 0 {
				return nil, fmt.Errorf("mc: negative execution time for %s", j.Name())
			}
			isHi := mcs.Spec.Level(j.Proc) == HI
			if isHi {
				chi := mcs.Spec.WCETHi[j.Proc]
				if chi.Less(actual) {
					return nil, fmt.Errorf("mc: %s executed %v, beyond its C_HI budget %v — system failure", j.Name(), actual, chi)
				}
				if j.WCET.Less(actual) { // C_LO overrun
					t := start.Add(j.WCET)
					if !switched || t.Less(switchAt) {
						switchAt = t
						switched = true
						culprit = j
					}
				}
			} else if j.WCET.Less(actual) {
				return nil, fmt.Errorf("mc: LO job %s executed %v beyond its budget %v", j.Name(), actual, j.WCET)
			}
			finish[i] = start.Add(actual)
			started[i] = true
			loPlaced = append(loPlaced, placed{index: i, start: start, end: finish[i], actual: actual})
		}

		commit := func(p placed) {
			i := p.index
			j := loTG.Jobs[i]
			state[i] = done{executed: !p.skip, finish: p.end}
			if p.skip {
				report.Skipped = append(report.Skipped, plan.Skip{Job: j, Frame: f})
				return
			}
			proc := mcs.Lo.Assign[i].Proc
			report.Entries = append(report.Entries, sched.GanttEntry{
				Proc: proc, Label: j.Name(), Start: p.start, End: p.end,
			})
			if deadline := base.Add(j.Deadline); deadline.Less(p.end) {
				miss := plan.Miss{Job: j, Frame: f, Finish: p.end, Deadline: deadline}
				if mcs.Spec.Level(j.Proc) == HI {
					report.HiMisses = append(report.HiMisses, miss)
				} else {
					report.LoMisses = append(report.LoMisses, miss)
				}
			}
			if report.Makespan.Less(p.end) {
				report.Makespan = p.end
			}
			dataJobs = append(dataJobs, dataJob{frame: f, index: i, now: invs[f][i].Ready})
			if physFree[proc].Less(p.end) {
				physFree[proc] = p.end
			}
		}

		if !switched {
			for _, p := range loPlaced {
				commit(p)
			}
		} else {
			report.Switches = append(report.Switches, ModeSwitch{Frame: f, At: switchAt, Culprit: culprit})
			// Keep only jobs that started before the switch; the LO
			// prefix up to switchAt is causally identical to the
			// pure-LO computation above.
			kept := make([]bool, n)
			for _, p := range loPlaced {
				if p.start.Less(switchAt) || p.skip && p.start.LessEq(switchAt) {
					commit(p)
					kept[p.index] = true
				}
			}
			// Remaining HI jobs continue under S_HI; remaining LO
			// jobs are dropped. Process the remaining jobs in a
			// topological order of (HI precedence + S_HI processor
			// chains) so cross-processor predecessor finishes are
			// known when needed.
			hiFinish := make([]Time, len(hiTG.Jobs))
			for hiIdx, loIdx := range mcs.loOfHi {
				if kept[loIdx] {
					hiFinish[hiIdx] = state[loIdx].finish
				}
			}
			procBusy := make([]Time, mcs.Hi.M)
			for p := range procBusy {
				procBusy[p] = switchAt.Max(physFree[p])
			}
			for _, hiIdx := range mcs.hiOrder {
				loIdx := mcs.loOfHi[hiIdx]
				if kept[loIdx] {
					continue
				}
				j := hiTG.Jobs[hiIdx]
				p := mcs.Hi.Assign[hiIdx].Proc
				inv := invs[f][loIdx]
				start := procBusy[p]
				if start.Less(inv.Ready) {
					start = inv.Ready
				}
				if prev := mcs.hiPrev[hiIdx]; prev >= 0 && start.Less(hiFinish[prev]) {
					start = hiFinish[prev]
				}
				for _, pre := range hiTG.Pred[hiIdx] {
					if start.Less(hiFinish[pre]) {
						start = hiFinish[pre]
					}
				}
				if inv.Skip {
					hiFinish[hiIdx] = start
					state[loIdx] = done{finish: start}
					report.Skipped = append(report.Skipped, plan.Skip{Job: loTG.Jobs[loIdx], Frame: f})
					continue
				}
				actual := exec(loTG.Jobs[loIdx], f)
				end := start.Add(actual)
				hiFinish[hiIdx] = end
				state[loIdx] = done{executed: true, finish: end}
				report.Entries = append(report.Entries, sched.GanttEntry{
					Proc: p, Label: j.Name() + "*", Start: start, End: end,
				})
				if deadline := base.Add(j.Deadline); deadline.Less(end) {
					report.HiMisses = append(report.HiMisses, plan.Miss{
						Job: loTG.Jobs[loIdx], Frame: f, Finish: end, Deadline: deadline,
					})
				}
				if report.Makespan.Less(end) {
					report.Makespan = end
				}
				dataJobs = append(dataJobs, dataJob{frame: f, index: loIdx, now: inv.Ready})
				procBusy[p] = end
				if physFree[p].Less(end) {
					physFree[p] = end
				}
			}
			// Count the dropped LO jobs.
			for i := range loTG.Jobs {
				if !kept[i] && mcs.Spec.Level(loTG.Jobs[i].Proc) == LO && !state[i].executed {
					report.DroppedLO++
				}
			}
		}
		lastFinishOnProc = physFree
	}

	// Data semantics: executed jobs in (frame, <_J) order, each stamped
	// with its invocation time as in plan.Run; dropped jobs never ran, so
	// the executed subset is channel-consistent.
	sort.SliceStable(dataJobs, func(a, b int) bool {
		if dataJobs[a].frame != dataJobs[b].frame {
			return dataJobs[a].frame < dataJobs[b].frame
		}
		return dataJobs[a].index < dataJobs[b].index
	})
	for k, dj := range dataJobs {
		if k == 0 || !dj.now.Equal(dataJobs[k-1].now) {
			machine.Wait(dj.now)
		}
		if err := machine.ExecJob(loTG.Jobs[dj.index].Proc, dj.now); err != nil {
			return nil, err
		}
	}
	report.Outputs = machine.Outputs()
	return report, nil
}

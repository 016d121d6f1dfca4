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
	"math"

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
	// lo is Lo compiled: its invocation planner and tick lowering are
	// what every run reads.
	lo *plan.Plan
	// loOfHi maps HI-graph job indices to LO-graph job indices.
	loOfHi []int
	// isHi[i] reports whether LO-graph job i belongs to a HI process.
	isHi []bool
	// loOrder and hiOrder are the combined static orders of Lo and Hi;
	// loPrev and hiPrev their chain-predecessor tables.
	loOrder, hiOrder []int
	loPrev, hiPrev   []int
}

// staticOrder returns a schedule's chain predecessors and combined
// order, from one processor-order sort.
func staticOrder(s *sched.Schedule) (prev, order []int, err error) {
	chains := s.ProcessorOrder()
	order, err = s.CombinedOrder(chains)
	return s.ChainPrev(chains), order, err
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
		isHi:   make([]bool, len(loTG.Jobs)),
	}
	if mcs.lo, err = plan.Compile(sLo); err != nil {
		return nil, fmt.Errorf("mc: LO schedule: %w", err)
	}
	for i, j := range loTG.Jobs {
		mcs.isHi[i] = spec.Level(j.Proc) == HI
	}
	if mcs.loPrev, mcs.loOrder, err = staticOrder(sLo); err != nil {
		return nil, fmt.Errorf("mc: LO schedule: %w", err)
	}
	if mcs.hiPrev, mcs.hiOrder, err = staticOrder(sHi); err != nil {
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

// Run simulates the dual-mode static-order policy. It reads the run's
// timing from the LO plan's tick lowering (plan.Plan.Lower), sweeps both
// modes with int64 max and add, and converts to exact time only when it
// writes the report.
func Run(mcs *Schedule, cfg Config) (*Report, error) {
	if cfg.Frames < 1 {
		return nil, fmt.Errorf("mc: %d frames", cfg.Frames)
	}
	pcfg := plan.Config{Frames: cfg.Frames, SporadicEvents: cfg.SporadicEvents}
	var budgetErr error
	if cfg.Exec != nil {
		// The lowering reads every executed instance's time once: check
		// its budget there.
		pcfg.Exec = func(j *taskgraph.Job, f int) Time {
			c := cfg.Exec(j, f)
			if budgetErr == nil {
				budgetErr = mcs.checkBudget(j, c)
			}
			return c
		}
	}
	invs, tm, err := mcs.lo.Lower(pcfg)
	if budgetErr != nil {
		return nil, budgetErr
	}
	if err != nil {
		return nil, err
	}
	machine, err := core.NewMachineCompiled(mcs.lo.Compiled(), core.MachineOptions{Inputs: cfg.Inputs})
	if err != nil {
		return nil, err
	}

	loTG, hiTG := mcs.Lo.TG, mcs.Hi.TG
	n := len(loTG.Jobs)
	report := &Report{Frames: cfg.Frames}
	// Per-frame scratch in ticks: LO-phase starts and finishes, which jobs
	// keep their LO placement and which execute, HI-phase finishes by
	// HI-graph index and processor availability. physFree carries each
	// processor's last finish across frames.
	start := make([]int64, n)
	finish := make([]int64, n)
	kept := make([]bool, n)
	executed := make([]bool, n)
	hiFinish := make([]int64, len(hiTG.Jobs))
	physFree := make([]int64, mcs.Lo.M)
	procBusy := make([]int64, mcs.Hi.M)
	var makespan int64
	lastWait := int64(math.MinInt64)

	for f := 0; f < cfg.Frames; f++ {
		frame := invs[f*n : (f+1)*n]
		// record writes an executed job's Gantt entry and deadline check.
		// HI jobs share their LO twin's arrival and deadline: same
		// process, period, deadline and hyperperiod.
		record := func(i, proc int, s, end int64, label string) {
			report.Entries = append(report.Entries, sched.GanttEntry{
				Proc: proc, Label: label, Start: tm.Time(s), End: tm.Time(end),
			})
			if deadline := tm.Deadline(f, i); end > deadline {
				miss := plan.Miss{Job: loTG.Jobs[i], Frame: f, Finish: tm.Time(end), Deadline: tm.Time(deadline)}
				if mcs.isHi[i] {
					report.HiMisses = append(report.HiMisses, miss)
				} else {
					report.LoMisses = append(report.LoMisses, miss)
				}
			}
			makespan = max(makespan, end)
			executed[i] = true
			physFree[proc] = max(physFree[proc], end)
		}

		// LO phase: place every job in S_LO order, watching HI budgets.
		// The first C_LO overrun, by switch instant, switches the frame.
		switchAt, culprit := int64(0), -1
		for _, i := range mcs.loOrder {
			s := max(tm.Start(f), tm.Ready(f, i))
			if prev := mcs.loPrev[i]; prev >= 0 {
				s = max(s, finish[prev])
			} else {
				s = max(s, physFree[mcs.Lo.Assign[i].Proc])
			}
			for _, p := range loTG.Pred[i] {
				s = max(s, finish[p])
			}
			start[i], finish[i] = s, s
			if frame[i].Skip {
				continue
			}
			c := tm.Exec(f, i)
			if cLo := tm.WCET(i); mcs.isHi[i] && c > cLo {
				if t := s + cLo; culprit < 0 || t < switchAt {
					switchAt, culprit = t, i
				}
			}
			finish[i] = s + c
		}

		// Commit the LO placements: all of them in a nominal frame, only
		// those started before the switch in a degraded one. The kept
		// prefix is causally identical to the pure-LO computation.
		clear(executed)
		for _, i := range mcs.loOrder {
			s := start[i]
			kept[i] = culprit < 0 || s < switchAt || frame[i].Skip && s <= switchAt
			switch {
			case !kept[i]:
			case frame[i].Skip:
				report.Skipped = append(report.Skipped, plan.Skip{Job: loTG.Jobs[i], Frame: f})
			default:
				record(i, mcs.Lo.Assign[i].Proc, s, finish[i], loTG.Jobs[i].Name())
			}
		}

		if culprit >= 0 {
			report.Switches = append(report.Switches, ModeSwitch{Frame: f, At: tm.Time(switchAt), Culprit: loTG.Jobs[culprit]})
			// Remaining HI jobs continue under S_HI's mapping and
			// order, a topological order of HI precedence and S_HI
			// chains, so every predecessor's finish is known when read;
			// remaining LO jobs are dropped.
			for hiIdx, i := range mcs.loOfHi {
				hiFinish[hiIdx] = finish[i] // final for kept jobs; the sweep overwrites the rest first
			}
			for p := range procBusy {
				procBusy[p] = max(switchAt, physFree[p])
			}
			for _, hiIdx := range mcs.hiOrder {
				i := mcs.loOfHi[hiIdx]
				if kept[i] {
					continue
				}
				proc := mcs.Hi.Assign[hiIdx].Proc
				s := max(procBusy[proc], tm.Ready(f, i))
				if prev := mcs.hiPrev[hiIdx]; prev >= 0 {
					s = max(s, hiFinish[prev])
				}
				for _, pre := range hiTG.Pred[hiIdx] {
					s = max(s, hiFinish[pre])
				}
				hiFinish[hiIdx] = s
				if frame[i].Skip {
					report.Skipped = append(report.Skipped, plan.Skip{Job: loTG.Jobs[i], Frame: f})
					continue
				}
				end := s + tm.Exec(f, i)
				hiFinish[hiIdx] = end
				record(i, proc, s, end, loTG.Jobs[i].Name()+"*")
				procBusy[proc] = end
			}
			for i := range kept {
				if !kept[i] && !mcs.isHi[i] {
					report.DroppedLO++
				}
			}
		}

		// Data pass for this frame in <_J order, each job stamped with
		// its invocation time as in plan.Run. Dropped jobs never ran, so
		// the executed subset is channel-consistent.
		for i := range frame {
			if !executed[i] {
				continue
			}
			if r := tm.Ready(f, i); r != lastWait {
				machine.Wait(frame[i].Ready)
				lastWait = r
			}
			if err := machine.ExecJobID(loTG.Jobs[i].Pid, frame[i].Ready); err != nil {
				return nil, err
			}
		}
	}
	if makespan > 0 {
		report.Makespan = tm.Time(makespan)
	}
	report.Outputs = machine.Outputs()
	return report, nil
}

// checkBudget rejects an execution time that no budget admits: a negative
// one, a HI job's beyond C_HI, or a LO job's beyond its WCET.
func (s *Schedule) checkBudget(j *taskgraph.Job, c Time) error {
	switch {
	case c.Sign() < 0:
		return fmt.Errorf("mc: negative execution time for %s", j.Name())
	case s.Spec.Level(j.Proc) == HI:
		if chi := s.Spec.WCETHi[j.Proc]; chi.Less(c) {
			return fmt.Errorf("mc: %s executed %v, beyond its C_HI budget %v — system failure", j.Name(), c, chi)
		}
	case j.WCET.Less(c):
		return fmt.Errorf("mc: LO job %s executed %v beyond its budget %v", j.Name(), c, j.WCET)
	}
	return nil
}

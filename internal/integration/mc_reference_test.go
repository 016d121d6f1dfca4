package integration

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// mcRunReference is the rational mixed-criticality runtime kept as the
// oracle of mc.Run: it sweeps the LO and HI static orders with exact
// rational instants and runs the data semantics after the last frame, in
// (frame, <_J) order.
func mcRunReference(mcs *mc.Schedule, cfg mc.Config) (*mc.Report, error) {
	if cfg.Frames < 1 {
		return nil, fmt.Errorf("mc: %d frames", cfg.Frames)
	}
	exec := cfg.Exec
	if exec == nil {
		exec = platform.WCETExec()
	}
	loTG := mcs.Lo.TG
	hiTG := mcs.Hi.TG
	loChains, hiChains := rationalProcessorOrder(mcs.Lo), rationalProcessorOrder(mcs.Hi)
	loOrder, err := combinedOrderReference(mcs.Lo, loChains)
	if err != nil {
		return nil, err
	}
	hiOrder, err := combinedOrderReference(mcs.Hi, hiChains)
	if err != nil {
		return nil, err
	}
	loPrev, hiPrev := mcs.Lo.ChainPrev(loChains), mcs.Hi.ChainPrev(hiChains)
	loOfHi := make([]int, len(hiTG.Jobs))
	for i, j := range hiTG.Jobs {
		loOfHi[i] = loTG.Job(j.Proc, j.K).Index
	}
	lo, err := plan.Compile(mcs.Lo)
	if err != nil {
		return nil, err
	}
	invs, _, err := lo.Lower(plan.Config{Frames: cfg.Frames, SporadicEvents: cfg.SporadicEvents})
	if err != nil {
		return nil, err
	}
	machine, err := core.NewMachine(mcs.Net, core.MachineOptions{Inputs: cfg.Inputs})
	if err != nil {
		return nil, err
	}

	n := len(loTG.Jobs)
	h := loTG.Hyperperiod

	report := &mc.Report{Frames: cfg.Frames}
	lastFinishOnProc := make([]mc.Time, mcs.Lo.M)

	type done struct {
		executed bool
		finish   mc.Time
	}
	type dataJob struct {
		frame, index int
		now          mc.Time
	}
	var dataJobs []dataJob

	for f := 0; f < cfg.Frames; f++ {
		base := h.MulInt(int64(f))
		state := make([]done, n)
		physFree := append([]mc.Time(nil), lastFinishOnProc...)

		// LO phase: execute in S_LO order, watching HI budgets.
		type placed struct {
			index      int
			start, end mc.Time
			skip       bool
		}
		var loPlaced []placed
		switchAt := mc.Time{}
		switched := false
		var culprit *taskgraph.Job

		finish := make([]mc.Time, n)
		for _, i := range loOrder {
			j := loTG.Jobs[i]
			inv := invs[f*n+i]
			start := base
			if start.Less(inv.Ready) {
				start = inv.Ready
			}
			if prev := loPrev[i]; prev >= 0 {
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
				loPlaced = append(loPlaced, placed{index: i, start: start, end: start, skip: true})
				continue
			}
			actual := exec(j, f)
			if actual.Sign() < 0 {
				return nil, fmt.Errorf("mc: negative execution time for %s", j.Name())
			}
			if mcs.Spec.Level(j.Proc) == mc.HI {
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
			loPlaced = append(loPlaced, placed{index: i, start: start, end: finish[i]})
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
				if mcs.Spec.Level(j.Proc) == mc.HI {
					report.HiMisses = append(report.HiMisses, miss)
				} else {
					report.LoMisses = append(report.LoMisses, miss)
				}
			}
			if report.Makespan.Less(p.end) {
				report.Makespan = p.end
			}
			dataJobs = append(dataJobs, dataJob{frame: f, index: i, now: invs[f*n+i].Ready})
			if physFree[proc].Less(p.end) {
				physFree[proc] = p.end
			}
		}

		if !switched {
			for _, p := range loPlaced {
				commit(p)
			}
		} else {
			report.Switches = append(report.Switches, mc.ModeSwitch{Frame: f, At: switchAt, Culprit: culprit})
			// Keep only jobs that started before the switch.
			kept := make([]bool, n)
			for _, p := range loPlaced {
				if p.start.Less(switchAt) || p.skip && p.start.LessEq(switchAt) {
					commit(p)
					kept[p.index] = true
				}
			}
			// Remaining HI jobs continue under S_HI in a topological
			// order of HI precedence and S_HI chains; remaining LO jobs
			// are dropped.
			hiFinish := make([]mc.Time, len(hiTG.Jobs))
			for hiIdx, loIdx := range loOfHi {
				if kept[loIdx] {
					hiFinish[hiIdx] = state[loIdx].finish
				}
			}
			procBusy := make([]mc.Time, mcs.Hi.M)
			for p := range procBusy {
				procBusy[p] = switchAt.Max(physFree[p])
			}
			for _, hiIdx := range hiOrder {
				loIdx := loOfHi[hiIdx]
				if kept[loIdx] {
					continue
				}
				j := hiTG.Jobs[hiIdx]
				p := mcs.Hi.Assign[hiIdx].Proc
				inv := invs[f*n+loIdx]
				start := procBusy[p]
				if start.Less(inv.Ready) {
					start = inv.Ready
				}
				if prev := hiPrev[hiIdx]; prev >= 0 && start.Less(hiFinish[prev]) {
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
			for i := range loTG.Jobs {
				if !kept[i] && mcs.Spec.Level(loTG.Jobs[i].Proc) == mc.LO && !state[i].executed {
					report.DroppedLO++
				}
			}
		}
		lastFinishOnProc = physFree
	}

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

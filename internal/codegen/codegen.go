// Package codegen translates an FPPN together with its static schedule into
// a network of timed automata, mirroring the paper's prototype tool flow:
// "The tools are based on automatic translation of the FPPN network and the
// schedule to a network of timed automata", which a runtime engine then
// executes on the target.
//
// The generated network contains:
//
//   - one generator automaton per periodic process, firing every period and
//     incrementing the process's arrival counter (burst-sized increments);
//   - one event-script automaton per sporadic process, replaying the
//     experiment's event time stamps into the arrival counter — the paper's
//     simulation-input role;
//   - one scheduler automaton per processor, cycling through its static job
//     order each frame and implementing the three-step round of Section IV:
//     synchronize invocation (arrival-counter guards; false server jobs are
//     skipped at their subset boundary), synchronize precedence (completion
//     counters of the task-graph predecessors) and execute (a location with
//     invariant x <= C_i whose exit increments the completion counter);
//   - a frame barrier variable making the per-frame wrap explicit.
//
// Job bodies run through the same core.Machine as every other executor, so
// tests can check that the generated system produces exactly the outputs of
// the zero-delay semantics and the native runtime.
package codegen

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/ta"
)

// Time aliases the exact rational time type.
type Time = rational.Rat

// Config parameterizes generation. The sporadic event script and the input
// samples are baked into the generated system, as in the paper's simulation
// mode.
type Config struct {
	Frames         int
	SporadicEvents map[string][]Time
	Inputs         map[string][]core.Value
	RecordTATrace  bool
}

// Program is a generated timed-automata system ready to execute.
type Program struct {
	// TA is the generated network (inspectable, DOT-exportable).
	TA *ta.Network
	// Schedule is the static schedule the system implements.
	Schedule *sched.Schedule

	cfg     Config
	machine *core.Machine
	interp  *ta.Interpreter
	report  *plan.Report
}

func arrVar(proc string) string   { return "arr_" + proc }
func doneVar(job int) string      { return fmt.Sprintf("done_%d", job) }
func frameVar(procIdx int) string { return fmt.Sprintf("frame_M%d", procIdx) }

const wrappedVar = "wrapped"

// Generate builds the timed-automata system for a schedule and a concrete
// experiment configuration.
func Generate(s *sched.Schedule, cfg Config) (*Program, error) {
	tg := s.TG
	if cfg.Frames < 1 {
		return nil, fmt.Errorf("codegen: %d frames", cfg.Frames)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("codegen: static schedule must be feasible: %w", err)
	}
	// The plan's lowering fixes the invocations and the timescale that
	// every frame start, event and sum of WCETs the system reaches is on.
	p, err := plan.Compile(s)
	if err != nil {
		return nil, err
	}
	invs, tm, err := p.Lower(plan.Config{Frames: cfg.Frames, SporadicEvents: cfg.SporadicEvents})
	if err != nil {
		return nil, err
	}
	machine, err := core.NewMachineCompiled(p.Compiled(), core.MachineOptions{Inputs: cfg.Inputs})
	if err != nil {
		return nil, err
	}

	prog := &Program{
		Schedule: s,
		cfg:      cfg,
		machine:  machine,
		report:   plan.NewReport(s, cfg.Frames, tm.Scale(), machine),
	}
	n := len(tg.Jobs)
	net := &ta.Network{Init: ta.Vars{}}
	h := tg.Hyperperiod

	// Generator automata for periodic processes.
	for _, p := range tg.Net.Processes() {
		if p.IsSporadic() {
			continue
		}
		proc := p
		net.Init[arrVar(proc.Name)] = int64(proc.Burst()) // burst at t = 0
		net.Automata = append(net.Automata, &ta.Automaton{
			Name:    "gen_" + proc.Name,
			Initial: "tick",
			Clocks:  []string{"x"},
			Invariants: map[string][]ta.Invariant{
				"tick": {{Clock: "x", Bound: proc.Period()}},
			},
			Edges: []ta.Edge{{
				From:       "tick",
				To:         "tick",
				ClockGuard: []ta.Constraint{{Clock: "x", Op: ta.EQ, Bound: proc.Period()}},
				Resets:     []string{"x"},
				Update: func(v ta.Vars) {
					v[arrVar(proc.Name)] += int64(proc.Burst())
				},
				Label: "period",
			}},
		})
	}

	// Event-script automata for sporadic processes.
	for _, p := range tg.Net.Processes() {
		if !p.IsSporadic() {
			continue
		}
		proc := p
		events := append([]Time(nil), cfg.SporadicEvents[proc.Name]...)
		for i := 1; i < len(events); i++ {
			if events[i].Less(events[i-1]) {
				return nil, fmt.Errorf("codegen: events for %q are not sorted", proc.Name)
			}
		}
		a := &ta.Automaton{
			Name:       "script_" + proc.Name,
			Initial:    "e0",
			Clocks:     []string{"abs"},
			Invariants: map[string][]ta.Invariant{},
		}
		for i, tau := range events {
			from := fmt.Sprintf("e%d", i)
			to := fmt.Sprintf("e%d", i+1)
			a.Invariants[from] = []ta.Invariant{{Clock: "abs", Bound: tau}}
			a.Edges = append(a.Edges, ta.Edge{
				From:       from,
				To:         to,
				ClockGuard: []ta.Constraint{{Clock: "abs", Op: ta.EQ, Bound: tau}},
				Update: func(v ta.Vars) {
					v[arrVar(proc.Name)]++
				},
				Label: fmt.Sprintf("event@%v", tau),
			})
		}
		net.Automata = append(net.Automata, a)
		net.Init[arrVar(proc.Name)] = 0
	}

	// Scheduler automata, one per processor.
	procOrder := s.ProcessorOrder()
	net.Init[wrappedVar] = int64(s.M) // frame 0 starts "wrapped"
	for procIdx := 0; procIdx < s.M; procIdx++ {
		a := &ta.Automaton{
			Name:       fmt.Sprintf("sched_M%d", procIdx+1),
			Initial:    "sync0",
			Clocks:     []string{"xf", "xe"},
			Invariants: map[string][]ta.Invariant{},
		}
		net.Init[frameVar(procIdx)] = 0
		chain := procOrder[procIdx]
		fv := frameVar(procIdx)
		pIdx := procIdx
		for pos, jobIdx := range chain {
			j := tg.Jobs[jobIdx]
			job := j
			ji := jobIdx
			sync := fmt.Sprintf("sync%d", pos)
			exec := fmt.Sprintf("exec%d", pos)
			next := fmt.Sprintf("sync%d", pos+1)
			if pos == len(chain)-1 {
				next = "wrap"
			}

			// Guard pieces shared by the exec and skip edges.
			preds := append([]int(nil), tg.Pred[ji]...)
			barrier := func(v ta.Vars) bool {
				return v[wrappedVar] >= (v[fv]+1)*int64(s.M)
			}
			predsDone := func(v ta.Vars) bool {
				f := v[fv]
				for _, pre := range preds {
					if v[doneVar(pre)] < f+1 {
						return false
					}
				}
				return true
			}

			if !job.Server {
				per := int64(len(tg.JobsOf(job.Pid))) // invocations per frame
				k := job.K
				pname := job.Proc
				a.Edges = append(a.Edges, ta.Edge{
					From: sync,
					To:   exec,
					VarGuard: func(v ta.Vars) bool {
						return barrier(v) &&
							v[arrVar(pname)] >= v[fv]*per+k &&
							predsDone(v)
					},
					Resets: []string{"xe"},
					Action: prog.startAction(ji, pIdx),
					Label:  "start " + job.Name(),
				})
			} else {
				// Server job: the exec edge requires the planned
				// sporadic event; the skip edge fires at the
				// subset boundary A_i when the plan marks the
				// instance false. Which case applies per frame is
				// driven by the offline plan, exactly like the
				// runtime's synchronize-invocation step.
				pname := job.Proc
				a.Edges = append(a.Edges, ta.Edge{
					From: sync,
					To:   exec,
					VarGuard: func(v ta.Vars) bool {
						f := int(v[fv])
						pl := invs[f*n+ji]
						return !pl.Skip && barrier(v) &&
							v[arrVar(pname)] >= int64(pl.EventIndex) &&
							predsDone(v)
					},
					Resets: []string{"xe"},
					Action: prog.startAction(ji, pIdx),
					Label:  "start " + job.Name(),
				})
				arrival := job.Arrival
				a.Edges = append(a.Edges, ta.Edge{
					From:       sync,
					To:         next,
					ClockGuard: []ta.Constraint{{Clock: "xf", Op: ta.GE, Bound: arrival}},
					VarGuard: func(v ta.Vars) bool {
						f := int(v[fv])
						return invs[f*n+ji].Skip && barrier(v) && predsDone(v)
					},
					Update: func(v ta.Vars) {
						v[doneVar(ji)]++
					},
					Action: prog.skipAction(ji),
					Label:  "skip " + job.Name(),
				})
			}
			// Completion edge.
			a.Invariants[exec] = []ta.Invariant{{Clock: "xe", Bound: job.WCET}}
			a.Edges = append(a.Edges, ta.Edge{
				From:       exec,
				To:         next,
				ClockGuard: []ta.Constraint{{Clock: "xe", Op: ta.EQ, Bound: job.WCET}},
				Update: func(v ta.Vars) {
					v[doneVar(ji)]++
				},
				Label: "done " + job.Name(),
			})
			net.Init[doneVar(ji)] = 0
		}
		// Frame wrap: at xf == H return to sync0.
		wrapFrom := "wrap"
		if len(chain) == 0 {
			wrapFrom = "sync0" // empty processor: its frame is one idle loop
		}
		a.Invariants[wrapFrom] = []ta.Invariant{{Clock: "xf", Bound: h}}
		a.Edges = append(a.Edges, ta.Edge{
			From:       wrapFrom,
			To:         "sync0",
			ClockGuard: []ta.Constraint{{Clock: "xf", Op: ta.EQ, Bound: h}},
			Resets:     []string{"xf"},
			Update: func(v ta.Vars) {
				v[fv]++
				v[wrappedVar]++
			},
			Label: "frame-wrap",
		})
		net.Automata = append(net.Automata, a)
	}

	if err := net.Validate(); err != nil {
		return nil, err
	}
	prog.TA = net
	interp, err := ta.NewInterpreter(net, cfg.RecordTATrace)
	if err != nil {
		return nil, err
	}
	prog.interp = interp
	return prog, nil
}

// startAction returns the host callback for a job start: run the data
// semantics and record the execution interval (the end and deadline check
// use the static WCET, since the generated system always runs jobs for
// exactly C_i).
func (p *Program) startAction(jobIdx, procIdx int) func(now Time) error {
	return func(now Time) error {
		tg := p.Schedule.TG
		j := tg.Jobs[jobIdx]
		if err := p.machine.ExecJobID(j.Pid, now); err != nil {
			return err
		}
		end := now.Add(j.WCET)
		start, okStart := p.report.Scale.Ticks(now)
		stop, okStop := p.report.Scale.Ticks(end)
		if !okStart || !okStop {
			return fmt.Errorf("codegen: %s runs at %v, off the run's int64 timescale", j.Name(), now)
		}
		p.report.Entries = append(p.report.Entries, plan.Entry{
			Proc: int32(procIdx), Job: int32(jobIdx), Start: start, End: stop,
		})
		frame := int(now.FloorDiv(tg.Hyperperiod))
		deadline := tg.Hyperperiod.MulInt(int64(frame)).Add(j.Deadline)
		if deadline.Less(end) {
			p.report.Misses = append(p.report.Misses, plan.Miss{
				Job: j, Frame: frame, Finish: end, Deadline: deadline,
			})
		}
		if p.report.Makespan.Less(end) {
			p.report.Makespan = end
		}
		return nil
	}
}

// skipAction records a false-marked server job.
func (p *Program) skipAction(jobIdx int) func(now Time) error {
	return func(now Time) error {
		tg := p.Schedule.TG
		frame := int(now.FloorDiv(tg.Hyperperiod))
		if frame >= p.cfg.Frames {
			frame = p.cfg.Frames - 1
		}
		p.report.Skipped = append(p.report.Skipped, plan.Skip{Job: tg.Jobs[jobIdx], Frame: frame})
		return nil
	}
}

// Run executes the generated system for the configured number of frames and
// returns a report comparable with the native runtime's.
func (p *Program) Run() (*plan.Report, error) {
	horizon := p.Schedule.TG.Hyperperiod.MulInt(int64(p.cfg.Frames))
	if err := p.interp.RunExclusive(horizon); err != nil {
		return nil, err
	}
	p.report.Outputs = p.machine.Outputs()
	return p.report, nil
}

// TATrace returns the interpreter's firing trace (if recording was
// enabled).
func (p *Program) TATrace() []ta.Firing { return p.interp.Trace() }

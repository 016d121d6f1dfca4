// Command experiments regenerates every evaluation artifact of the DATE
// 2015 FPPN paper and prints a paper-vs-measured report. EXPERIMENTS.md is
// produced from this output.
package main

import (
	"fmt"
	"os"

	"repro/internal/apps/fft"
	"repro/internal/apps/fms"
	"repro/internal/apps/signal"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/feas"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/staticflow"
	"repro/internal/taskgraph"
	"repro/internal/unisched"
)

func ms(n int64) core.Time { return rational.Milli(n) }

var failures int

func row(id, quantity, paper, measured string, ok bool) {
	status := "OK"
	if !ok {
		status = "MISMATCH"
		failures++
	}
	fmt.Printf("| %-8s | %-46s | %-22s | %-22s | %-8s |\n", id, quantity, paper, measured, status)
}

func main() {
	fmt.Println("# FPPN reproduction: paper vs measured")
	fmt.Println()
	fmt.Println("| exp      | quantity                                       | paper                  | measured               | status   |")
	fmt.Println("|----------|------------------------------------------------|------------------------|------------------------|----------|")

	fig1()
	fig3()
	fig4()
	fig5()
	fig6()
	fig7()
	propositions()
	portfolio()
	feasibility()
	toolflow()

	fmt.Println()
	if failures > 0 {
		fmt.Printf("%d mismatches\n", failures)
		os.Exit(1)
	}
	fmt.Println("all correspondence checks passed")
}

func fig1() {
	net := signal.New()
	row("Fig.1", "example FPPN processes / channels",
		"7 / 7", fmt.Sprintf("%d / %d", len(net.Processes()), len(net.Channels())),
		len(net.Processes()) == 7 && len(net.Channels()) == 7)
	err := net.ValidateSchedulable()
	row("Fig.1", "well-formed (FP acyclic, channels covered)", "yes",
		fmt.Sprintf("%v", err == nil), err == nil)
}

func fig3() {
	tg, err := taskgraph.Derive(signal.New())
	if err != nil {
		row("Fig.3", "task graph derivation", "succeeds", err.Error(), false)
		return
	}
	row("Fig.3", "hyperperiod H", "200 ms",
		fmt.Sprintf("%v ms", tg.Hyperperiod.MulInt(1000)), tg.Hyperperiod.Equal(ms(200)))
	row("Fig.3", "jobs (m_p·H/T_p per process)", "10",
		fmt.Sprintf("%d", len(tg.Jobs)), len(tg.Jobs) == 10)
	coef := tg.Job("CoefB", 1)
	row("Fig.3", "CoefB server (A, D, C)", "(0, 200, 25) ms",
		fmt.Sprintf("(%v, %v, %v) ms", coef.Arrival.MulInt(1000), coef.Deadline.MulInt(1000), coef.WCET.MulInt(1000)),
		coef.Arrival.IsZero() && coef.Deadline.Equal(ms(200)) && coef.WCET.Equal(ms(25)))
	full, _ := taskgraph.DeriveOpts(signal.New(), taskgraph.Options{KeepRedundantEdges: true})
	inputA, normA := full.Job("InputA", 1).Index, full.Job("NormA", 1).Index
	redundantRemoved := full.HasEdge(inputA, normA) && !tg.HasEdge(inputA, normA) && tg.HasPath(inputA, normA)
	row("Fig.3", "InputA->NormA edge redundant, removed", "yes",
		fmt.Sprintf("%v", redundantRemoved), redundantRemoved)
	load := tg.Load()
	row("Fig.3", "task-graph load", "(not stated; ⌈load⌉=2 implied)",
		fmt.Sprintf("%.2f -> %d procs", load.Float64(), load.Ceil()), load.Ceil() == 2)
}

func fig4() {
	tg, _ := taskgraph.Derive(signal.New())
	s2, err := sched.FindFeasible(tg, 2)
	ok2 := err == nil && s2.Validate() == nil
	row("Fig.4", "two-processor static schedule feasible", "yes",
		fmt.Sprintf("%v", ok2), ok2)
	_, err1 := sched.FindFeasible(tg, 1)
	row("Fig.4", "one-processor schedule feasible", "no (load 1.5)",
		fmt.Sprintf("%v", err1 == nil), err1 != nil)
	if ok2 {
		mk := s2.Makespan()
		row("Fig.4", "schedule fits the 200 ms frame", "yes",
			fmt.Sprintf("makespan %v ms", mk.MulInt(1000)), mk.LessEq(ms(200)))
	}
}

func fig5() {
	net := fft.New()
	row("Fig.5", "FFT processes", "14",
		fmt.Sprintf("%d", len(net.Processes())), len(net.Processes()) == 14)
	tg, err := taskgraph.Derive(net)
	if err != nil {
		row("Fig.5", "derivation", "succeeds", err.Error(), false)
		return
	}
	oneToOne := len(tg.Jobs) == 14 && tg.EdgeCount() == len(net.Channels())
	row("Fig.5", "task graph maps 1:1 to process network", "yes",
		fmt.Sprintf("%d jobs, %d edges, %d channels", len(tg.Jobs), tg.EdgeCount(), len(net.Channels())),
		oneToOne)
}

func fig6() {
	tg, _ := taskgraph.Derive(fft.New())
	load := tg.Load()
	row("Fig.6", "FFT task-graph load (C=13.3 ms)", "0.93",
		fmt.Sprintf("%.3f", load.Float64()),
		load.Float64() > 0.92 && load.Float64() < 0.94)

	tgo, _ := taskgraph.Derive(fft.NewWithOverheadJob())
	loadO := tgo.Load()
	row("Fig.6", "load with 41 ms overhead job", "~1.2",
		fmt.Sprintf("%.3f", loadO.Float64()),
		loadO.Float64() > 1.1 && loadO.Float64() < 1.3)

	frames := make([]fft.Frame, 10)
	inputs := fft.Inputs(frames)
	overhead := platform.MPPAFFTOverhead()
	row("Fig.6", "frame-management overhead model", "41 ms first / 20 ms later",
		fmt.Sprintf("%v ms / %v ms", overhead.FrameOverhead(0, 14).MulInt(1000), overhead.FrameOverhead(3, 14).MulInt(1000)),
		overhead.FrameOverhead(0, 14).Equal(ms(41)) && overhead.FrameOverhead(3, 14).Equal(ms(20)))

	s1, _ := sched.ListSchedule(tg, 1, sched.ALAPEDF)
	p1, err := plan.Compile(s1)
	var rep1 *plan.Report
	if err == nil {
		rep1, err = p1.Run(plan.Config{Frames: 10, Overhead: overhead, Inputs: inputs})
	}
	if err != nil {
		row("Fig.6", "M=1 execution", "runs", err.Error(), false)
		return
	}
	row("Fig.6", "M=1 with overhead: deadline misses", "misses observed",
		fmt.Sprintf("%d misses, max lateness %v ms", len(rep1.Misses), rep1.MaxLateness.MulInt(1000)),
		len(rep1.Misses) > 0)

	s2, _ := sched.FindFeasible(tg, 2)
	p2, err := plan.Compile(s2)
	var rep2 *plan.Report
	if err == nil {
		rep2, err = p2.Run(plan.Config{Frames: 10, Overhead: overhead, Inputs: inputs})
	}
	if err != nil {
		row("Fig.6", "M=2 execution", "runs", err.Error(), false)
		return
	}
	row("Fig.6", "M=2 with overhead: deadline misses", "none",
		fmt.Sprintf("%d", len(rep2.Misses)), len(rep2.Misses) == 0)

	same := core.SamplesEqual(rep1.Outputs, rep2.Outputs)
	row("Fig.6", "outputs identical across mappings", "deterministic",
		fmt.Sprintf("%v", same), same)
}

func fig7() {
	hOrig, err := core.Hyperperiod(fms.NewConfig(fms.Original()), map[string]core.Time{
		fms.AnemoConfig: ms(200), fms.GPSConfig: ms(200), fms.IRSConfig: ms(200),
		fms.DopplerConfig: ms(200), fms.BCPConfig: ms(200),
		fms.MagnDeclinConfig: ms(1600), fms.PerformanceConfig: ms(1000),
	})
	row("Fig.7", "original hyperperiod", "40 s",
		fmt.Sprintf("%v s (err=%v)", hOrig, err), err == nil && hOrig.Equal(rational.FromInt(40)))

	tg, err := taskgraph.Derive(fms.New())
	if err != nil {
		row("Fig.7", "reduced derivation", "succeeds", err.Error(), false)
		return
	}
	row("Fig.7", "reduced hyperperiod (MagnDeclin 400 ms)", "10 s",
		fmt.Sprintf("%v s", tg.Hyperperiod), tg.Hyperperiod.Equal(rational.FromInt(10)))
	row("Fig.7", "task-graph jobs", "812",
		fmt.Sprintf("%d", len(tg.Jobs)), len(tg.Jobs) == 812)
	row("Fig.7", "task-graph edges", "1977 (their wiring)",
		fmt.Sprintf("%d (our wiring)", tg.EdgeCount()),
		tg.EdgeCount() > 800 && tg.EdgeCount() < 2500)
	load := tg.Load()
	row("Fig.7", "task-graph load", "~0.23",
		fmt.Sprintf("%.3f", load.Float64()),
		load.Float64() > 0.20 && load.Float64() < 0.27)

	s1, err := sched.FindFeasible(tg, 1)
	if err != nil {
		row("Fig.7", "uniprocessor schedule", "feasible", err.Error(), false)
		return
	}
	events := map[string][]core.Time{
		fms.AnemoConfig:       {ms(40), ms(2300)},
		fms.BCPConfig:         {ms(700)},
		fms.MagnDeclinConfig:  {ms(100), ms(1500)},
		fms.PerformanceConfig: {ms(600)},
	}
	p1, err := plan.Compile(s1)
	var rep *plan.Report
	if err == nil {
		rep, err = p1.Run(plan.Config{Frames: 1, Inputs: fms.Inputs(50), SporadicEvents: events})
	}
	if err != nil {
		row("Fig.7", "uniprocessor run", "no misses", err.Error(), false)
		return
	}
	row("Fig.7", "uniprocessor deadline misses", "none",
		fmt.Sprintf("%d", len(rep.Misses)), len(rep.Misses) == 0)

	// Functional equivalence with the uniprocessor fixed-priority
	// prototype (rate-monotonic priorities).
	pr := unisched.RateMonotonic(fms.New())
	consistent := unisched.Consistent(fms.New(), pr) == nil
	row("Fig.7", "RM priorities in line with FP", "yes",
		fmt.Sprintf("%v", consistent), consistent)
	legacy, err := unisched.RunFunctional(fms.New(), rational.FromInt(10), pr, events, fms.Inputs(50), false)
	if err != nil {
		row("Fig.7", "legacy uniprocessor run", "runs", err.Error(), false)
		return
	}
	ref, _ := core.RunZeroDelay(fms.New(), rational.FromInt(10), core.ZeroDelayOptions{
		SporadicEvents: events, Inputs: fms.Inputs(50),
	})
	eq := core.SamplesEqual(legacy.Outputs, ref.Outputs) && core.SamplesEqual(ref.Outputs, rep.Outputs)
	row("Fig.7", "functional equivalence legacy = FPPN", "verified by testing",
		fmt.Sprintf("%v", eq), eq)
}

func propositions() {
	// Proposition 2.1: outputs invariant across FP-respecting orders.
	events := map[string][]core.Time{signal.CoefB: {ms(50), ms(420)}}
	ref, _ := core.RunZeroDelay(signal.New(), ms(1400), core.ZeroDelayOptions{
		SporadicEvents: events, Inputs: signal.Inputs(7), Seed: -1,
	})
	det := true
	for seed := int64(0); seed < 20; seed++ {
		got, err := core.RunZeroDelay(signal.New(), ms(1400), core.ZeroDelayOptions{
			SporadicEvents: events, Inputs: signal.Inputs(7), Seed: seed,
		})
		if err != nil || !core.SamplesEqual(ref.Outputs, got.Outputs) {
			det = false
			break
		}
	}
	row("Prop2.1", "deterministic execution (20 random orders)", "holds",
		fmt.Sprintf("%v", det), det)

	// Proposition 4.1: the static-order runtime meets deadlines and
	// reproduces the zero-delay outputs under execution-time jitter.
	tg, _ := taskgraph.Derive(signal.New())
	s, _ := sched.FindFeasible(tg, 2)
	p, compileErr := plan.Compile(s)
	ok := compileErr == nil
	for trial := int64(0); ok && trial < 10; trial++ {
		jitter, _ := platform.JitterExec(trial, rational.New(1, 2))
		rep, err := p.Run(plan.Config{
			Frames: 7, SporadicEvents: events, Inputs: signal.Inputs(7), Exec: jitter,
		})
		ok = err == nil && len(rep.Misses) == 0 && core.SamplesEqual(ref.Outputs, rep.Outputs)
	}
	row("Prop4.1", "static-order policy correct (10 jitter trials)", "holds",
		fmt.Sprintf("%v", ok), ok)

	concOK := compileErr == nil
	if concOK {
		conc, err := p.RunConcurrent(plan.Config{
			Frames: 7, SporadicEvents: events, Inputs: signal.Inputs(7),
		})
		concOK = err == nil && core.SamplesEqual(ref.Outputs, conc.Outputs)
	}
	row("Prop4.1", "goroutine-per-processor execution", "deterministic",
		fmt.Sprintf("%v", concOK), concOK)
}

// portfolio checks the parallel portfolio: the heuristic race picks the
// best feasible makespan, and its schedule is byte-identical at workers=1
// (sequential reference) and workers=4.
func portfolio() {
	tg, err := taskgraph.Derive(fms.New())
	if err != nil {
		row("§III-B", "FMS derivation", "succeeds", err.Error(), false)
		return
	}

	best, err := sched.Portfolio(tg, 2, sched.PortfolioOptions{})
	if err != nil {
		row("§III-B", "heuristic portfolio on FMS", "feasible", err.Error(), false)
		return
	}
	atLeastAsGood := true
	for _, r := range sched.RunPortfolio(tg, 2, sched.PortfolioOptions{}) {
		if r.Feasible && r.Schedule.Makespan().Less(best.Makespan()) {
			atLeastAsGood = false
		}
	}
	row("§III-B", "portfolio winner makespan", "min over heuristics",
		fmt.Sprintf("%v (%vs)", best.Heuristic, best.Makespan()), atLeastAsGood)

	seqS, err1 := sched.Portfolio(tg, 2, sched.PortfolioOptions{Workers: 1})
	parS, err2 := sched.Portfolio(tg, 2, sched.PortfolioOptions{Workers: 4})
	if err1 != nil || err2 != nil {
		row("§III-B", "portfolio workers=1 vs 4", "byte-identical",
			fmt.Sprintf("%v / %v", err1, err2), false)
		return
	}
	seqSJSON, _ := export.MarshalIndent(export.Schedule(seqS))
	parSJSON, _ := export.MarshalIndent(export.Schedule(parS))
	row("§III-B", "portfolio schedule workers=1 vs 4", "byte-identical",
		fmt.Sprintf("%v", seqSJSON == parSJSON), seqSJSON == parSJSON)
}

// verdictSummary renders one report's per-test verdicts compactly;
// certified verdicts are starred.
func verdictSummary(rep *feas.Report) string {
	out := ""
	for i, res := range rep.Results {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s:%s", res.Test, res.Verdict)
		if res.Certified {
			out += "*"
		}
	}
	return out
}

// feasibility cross-checks the sporadic-DAG schedulability suite
// (internal/feas) against the exact scheduler on the paper applications:
// per-test verdicts at the paper's processor counts plus the one-sided
// soundness sandwich between staticflow.Demand and sched.MinProcessors.
func feasibility() {
	sigTG, err := taskgraph.Derive(signal.New())
	if err != nil {
		row("Feas", "signal derivation", "succeeds", err.Error(), false)
		return
	}
	r1, err := feas.Analyze(sigTG, 1, feas.Options{})
	if err != nil {
		row("Feas", "signal suite at M=1", "runs", err.Error(), false)
		return
	}
	allInf := true
	for _, res := range r1.Results {
		allInf = allInf && res.Verdict == feas.Infeasible
	}
	row("Feas", "signal verdicts at M=1 (load 1.5)", "infeasible",
		verdictSummary(r1), allInf)
	r2, _ := feas.Analyze(sigTG, 2, feas.Options{})
	noneInf := true
	for _, res := range r2.Results {
		noneInf = noneInf && res.Verdict != feas.Infeasible
	}
	row("Feas", "signal verdicts at M=2 = MinProcessors", "not infeasible",
		verdictSummary(r2), noneInf)

	fftTG, _ := taskgraph.Derive(fft.New())
	fr, _ := feas.Analyze(fftTG, 1, feas.Options{})
	rta, ok := fr.Result(feas.RTA)
	row("Feas", "FFT response-time test at M=1 (load 0.93)", "certified feasible",
		verdictSummary(fr), ok && rta.Verdict == feas.Feasible && rta.Certified)

	ovTG, _ := taskgraph.Derive(fft.NewWithOverheadJob())
	or, _ := feas.Analyze(ovTG, 1, feas.Options{})
	lb := or.Workload.MinProcessorsLB()
	minS, err := sched.MinProcessors(ovTG, len(ovTG.Jobs)+1)
	row("Feas", "FFT+overhead load bound = MinProcessors", "2 processors",
		fmt.Sprintf("lb %d, exact %d (err=%v)", lb, minS.M, err),
		err == nil && lb == 2 && minS.M == 2)

	fmsTG, _ := taskgraph.Derive(fms.New())
	mr, _ := feas.Analyze(fmsTG, 1, feas.Options{})
	edf, ok := mr.Result(feas.EDF)
	row("Feas", "FMS exact EDF verdict at M=1 (load 0.23)", "feasible",
		verdictSummary(mr), ok && edf.Verdict == feas.Feasible)

	// Soundness sandwich on every app at 1, 2 and 4 processors: no test
	// may claim feasibility below the demand bound, certification must be
	// realized by the list scheduler, and infeasibility must sit strictly
	// below the exact minimum.
	sound := true
	apps := []struct {
		name  string
		build func() *core.Network
	}{
		{"signal", signal.New}, {"fft", fft.New},
		{"fft-overhead", fft.NewWithOverheadJob}, {"fms", fms.New},
	}
	for _, app := range apps {
		net := app.build()
		tg, err := taskgraph.Derive(net)
		if err != nil {
			sound = false
			break
		}
		dem, demErr := staticflow.Demand(net)
		oracle, oracleErr := sched.MinProcessors(tg, len(tg.Jobs)+1)
		for _, m := range []int{1, 2, 4} {
			rep, err := feas.Analyze(tg, m, feas.Options{})
			if err != nil {
				sound = false
				continue
			}
			for _, res := range rep.Results {
				switch res.Verdict {
				case feas.Feasible:
					if demErr == nil && m < dem.LowerBound {
						sound = false
					}
					if res.Certified {
						if _, err := sched.FindFeasible(tg, m); err != nil {
							sound = false
						}
					}
				case feas.Infeasible:
					if oracleErr == nil && oracle.M <= m {
						sound = false
					}
				}
			}
		}
	}
	row("Feas", "soundness sandwich (4 apps × M ∈ {1,2,4})", "demand ≤ feas ≤ MinProcessors",
		fmt.Sprintf("%v", sound), sound)
}

func toolflow() {
	tg, _ := taskgraph.Derive(signal.New())
	s, _ := sched.FindFeasible(tg, 2)
	events := map[string][]core.Time{signal.CoefB: {ms(50)}}
	prog, err := codegen.Generate(s, codegen.Config{
		Frames: 7, SporadicEvents: events, Inputs: signal.Inputs(7),
	})
	if err != nil {
		row("§V", "FPPN+schedule -> timed automata", "tool flow works", err.Error(), false)
		return
	}
	rep, err := prog.Run()
	if err != nil {
		row("§V", "generated TA execution", "runs", err.Error(), false)
		return
	}
	ref, _ := core.RunZeroDelay(signal.New(), ms(1400), core.ZeroDelayOptions{
		SporadicEvents: events, Inputs: signal.Inputs(7),
	})
	eq := core.SamplesEqual(ref.Outputs, rep.Outputs)
	row("§V", "TA system = zero-delay semantics", "same behaviour",
		fmt.Sprintf("%v (%d automata)", eq, len(prog.TA.Automata)), eq)
}

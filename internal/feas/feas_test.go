package feas

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/apps/fft"
	"repro/internal/apps/signal"
	"repro/internal/core"
	"repro/internal/nettest"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

func ms(n int64) Time { return rational.Milli(n) }

func derive(t *testing.T, net *core.Network) *taskgraph.TaskGraph {
	t.Helper()
	tg, err := taskgraph.Derive(net)
	if err != nil {
		t.Fatalf("Derive(%s): %v", net.Name, err)
	}
	return tg
}

func analyze(t *testing.T, tg *taskgraph.TaskGraph, m int) *Report {
	t.Helper()
	rep, err := Analyze(tg, m, Options{})
	if err != nil {
		t.Fatalf("Analyze(m=%d): %v", m, err)
	}
	return rep
}

// TestSignalVerdicts pins the paper's Fig. 3 signal application: the
// frame load is 3/2, so every test proves infeasibility on one processor
// and none claims infeasibility at the true minimum of two.
func TestSignalVerdicts(t *testing.T) {
	tg := derive(t, signal.New())
	rep := analyze(t, tg, 1)
	if got := rep.Verdict(); got != Infeasible {
		t.Fatalf("signal at m=1: combined verdict %v, want infeasible", got)
	}
	if want := rational.New(3, 2); !rep.Workload.Load.Equal(want) {
		t.Errorf("signal load = %v, want %v", rep.Workload.Load, want)
	}
	if lb := rep.Workload.MinProcessorsLB(); lb != 2 {
		t.Errorf("signal MinProcessorsLB = %d, want 2", lb)
	}
	for _, res := range rep.Results {
		if res.Verdict != Infeasible {
			t.Errorf("signal %s at m=1: verdict %v, want infeasible", res.Test, res.Verdict)
		}
		w, ok := res.Witness()
		if !ok {
			t.Errorf("signal %s at m=1: no witness interval", res.Test)
			continue
		}
		if !w.Start.Less(w.End) || w.Demand.Sign() <= 0 {
			t.Errorf("signal %s witness [%v, %v] demand %v is degenerate", res.Test, w.Start, w.End, w.Demand)
		}
		// The witness really overloads one processor: demand > length.
		if !w.End.Sub(w.Start).Less(w.Demand) {
			t.Errorf("signal %s witness demand %v does not exceed window %v",
				res.Test, w.Demand, w.End.Sub(w.Start))
		}
	}
	// At the true minimum (two processors) no test may claim infeasible.
	rep2 := analyze(t, tg, 2)
	for _, res := range rep2.Results {
		if res.Verdict == Infeasible {
			t.Errorf("signal %s at m=2: infeasible verdict at the exact minimum", res.Test)
		}
	}
	if _, ok := rep2.Workload.Critical(); !ok {
		t.Error("signal workload has no critical window")
	}
}

// TestFFTVerdicts pins the FFT pipeline: single-processor feasible, with
// the exact EDF verdict uncertified (preemptive) and the response-time
// iteration certified for the list scheduler.
func TestFFTVerdicts(t *testing.T) {
	tg := derive(t, fft.New())
	rep := analyze(t, tg, 1)
	edf, ok := rep.Result(EDF)
	if !ok || edf.Verdict != Feasible || edf.Certified {
		t.Errorf("fft EDF at m=1 = %+v, want uncertified feasible", edf)
	}
	rta, ok := rep.Result(RTA)
	if !ok || rta.Verdict != Feasible || !rta.Certified {
		t.Errorf("fft RTA at m=1 = %+v, want certified feasible", rta)
	}
	if _, ok := rta.Worst(); !ok {
		t.Error("fft RTA at m=1 has no worst bound")
	}
	rep2 := analyze(t, tg, 2)
	for _, res := range rep2.Results {
		if res.Verdict != Feasible || !res.Certified {
			t.Errorf("fft %s at m=2 = %v (certified %v), want certified feasible", res.Test, res.Verdict, res.Certified)
		}
		w, ok := res.Worst()
		if !ok {
			t.Errorf("fft %s at m=2 has no worst bound", res.Test)
			continue
		}
		if w.Deadline.Less(w.Complete) {
			t.Errorf("fft %s at m=2: feasible but worst bound %v exceeds deadline %v", res.Test, w.Complete, w.Deadline)
		}
	}
}

// TestExactSingleProcessor checks the EDF test is never Unknown at m = 1:
// the demand criterion on modified windows is exact there.
func TestExactSingleProcessor(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 30; i++ {
		net := nettest.Random(rng, nettest.Options{})
		tg, err := taskgraph.Derive(net)
		if err != nil {
			continue
		}
		rep, err := Analyze(tg, 1, Options{})
		if err != nil {
			t.Fatalf("%s: %v", net.Name, err)
		}
		edf, _ := rep.Result(EDF)
		if edf.Verdict == Unknown {
			t.Errorf("%s: EDF verdict unknown at m=1; the single-processor test is exact", net.Name)
		}
	}
}

// reportsEqual compares two reports field by field, with exact rational
// equality (representation-independent) for every time-valued field.
func reportsEqual(t *testing.T, label string, a, b *Report) {
	t.Helper()
	if a.M != b.M {
		t.Errorf("%s: header mismatch: m=%d vs m=%d", label, a.M, b.M)
	}
	wa, wb := a.Workload, b.Workload
	if wa.Jobs != wb.Jobs || !wa.Hyperperiod.Equal(wb.Hyperperiod) ||
		!wa.Volume.Equal(wb.Volume) || !wa.Span.Equal(wb.Span) || !wa.Load.Equal(wb.Load) {
		t.Errorf("%s: workload mismatch: %+v vs %+v", label, wa, wb)
	}
	ca, oka := wa.Critical()
	cb, okb := wb.Critical()
	if oka != okb || (oka && !intervalEqual(ca, cb)) {
		t.Errorf("%s: critical window mismatch: %+v (%v) vs %+v (%v)", label, ca, oka, cb, okb)
	}
	va, vb := wa.WindowViolations(), wb.WindowViolations()
	if len(va) != len(vb) {
		t.Errorf("%s: %d window violations vs %d", label, len(va), len(vb))
	} else {
		for i := range va {
			if !boundEqual(va[i], vb[i]) {
				t.Errorf("%s: violation %d mismatch: %+v vs %+v", label, i, va[i], vb[i])
			}
		}
	}
	if len(a.Results) != len(b.Results) {
		t.Fatalf("%s: %d results vs %d", label, len(a.Results), len(b.Results))
	}
	for i := range a.Results {
		ra, rb := a.Results[i], b.Results[i]
		if ra.Test != rb.Test || ra.M != rb.M || ra.Verdict != rb.Verdict ||
			ra.Certified != rb.Certified || ra.Reason != rb.Reason {
			t.Errorf("%s: result %v mismatch:\n  %+v\nvs\n  %+v", label, ra.Test, ra, rb)
		}
		ia, oka := ra.Witness()
		ib, okb := rb.Witness()
		if oka != okb || (oka && !intervalEqual(ia, ib)) {
			t.Errorf("%s: %v witness mismatch: %+v (%v) vs %+v (%v)", label, ra.Test, ia, oka, ib, okb)
		}
		ba, oka := ra.Worst()
		bb, okb := rb.Worst()
		if oka != okb || (oka && !boundEqual(ba, bb)) {
			t.Errorf("%s: %v worst mismatch: %+v (%v) vs %+v (%v)", label, ra.Test, ba, oka, bb, okb)
		}
	}
}

func boundEqual(a, b Bound) bool {
	return a.Job == b.Job && a.Proc == b.Proc &&
		a.Complete.Equal(b.Complete) && a.Deadline.Equal(b.Deadline)
}

func intervalEqual(a, b taskgraph.Window) bool {
	return a.Start.Equal(b.Start) && a.End.Equal(b.End) && a.Demand.Equal(b.Demand)
}

// TestTickMatchesReference holds the integer-timescale path and the exact
// rational path to identical reports — verdicts, witnesses, bounds and
// reason strings — across random networks and processor counts.
func TestTickMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	checked := 0
	for i := 0; i < 25; i++ {
		net := nettest.Random(rng, nettest.Options{})
		tg, err := taskgraph.Derive(net)
		if err != nil {
			continue
		}
		lo, err := lower(tg)
		if err != nil {
			t.Fatalf("%s: integer lowering rejected a generated network: %v", net.Name, err)
		}
		for _, m := range []int{1, 2, 3, len(tg.Jobs) + 1} {
			tick := analyzeTicks(lo, m)
			ref := analyzeReference(tg, m)
			reportsEqual(t, net.Name, tick, ref)
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no derivable random networks")
	}
}

// handGraph builds a bare task graph (no source network) for edge-case
// tests; Analyze only touches Jobs, Pred, Succ and Hyperperiod.
func handGraph(h Time, jobs []*taskgraph.Job, edges [][2]int) *taskgraph.TaskGraph {
	n := len(jobs)
	for i, j := range jobs {
		j.Index = i
	}
	tg := &taskgraph.TaskGraph{Hyperperiod: h, Jobs: jobs,
		Succ: make([][]int, n), Pred: make([][]int, n)}
	for _, e := range edges {
		tg.Succ[e[0]] = append(tg.Succ[e[0]], e[1])
		tg.Pred[e[1]] = append(tg.Pred[e[1]], e[0])
	}
	return tg
}

// TestSingleJob covers the one-job DAG: feasible exactly when the window
// holds the WCET, at every processor count.
func TestSingleJob(t *testing.T) {
	fits := handGraph(ms(100), []*taskgraph.Job{
		{Proc: "p", K: 1, Arrival: ms(0), Deadline: ms(10), WCET: ms(10)},
	}, nil)
	for _, m := range []int{1, 2, 8} {
		rep := analyze(t, fits, m)
		if got := rep.Verdict(); got != Feasible {
			t.Errorf("single fitting job at m=%d: %v, want feasible", m, got)
		}
	}
	tight := handGraph(ms(100), []*taskgraph.Job{
		{Proc: "p", K: 1, Arrival: ms(0), Deadline: ms(10), WCET: ms(11)},
	}, nil)
	for _, m := range []int{1, 2, 8} {
		rep := analyze(t, tight, m)
		for _, res := range rep.Results {
			if res.Verdict != Infeasible {
				t.Errorf("overfull job at m=%d: %s verdict %v, want infeasible", m, res.Test, res.Verdict)
			}
		}
		v := rep.Workload.WindowViolations()
		if len(v) != 1 || v[0].Job != "p[1]" || v[0].Proc != "p" {
			t.Errorf("overfull job at m=%d: window violations %+v, want one for p[1]", m, v)
		}
	}
}

// TestZeroWCET covers zero-WCET jobs, which the derivation never produces
// (FPPN005) but hand-built graphs can: the chain bounds abstain (the
// work-conserving argument needs C > 0) while the necessary conditions
// and the exact m = 1 verdict still apply.
func TestZeroWCET(t *testing.T) {
	tg := handGraph(ms(100), []*taskgraph.Job{
		{Proc: "a", K: 1, Arrival: ms(0), Deadline: ms(20), WCET: ms(0)},
		{Proc: "b", K: 1, Arrival: ms(0), Deadline: ms(20), WCET: ms(5)},
		{Proc: "c", K: 1, Arrival: ms(0), Deadline: ms(20), WCET: ms(5)},
	}, [][2]int{{0, 1}, {0, 2}})
	rep := analyze(t, tg, 2)
	for _, res := range rep.Results {
		if res.Verdict != Unknown {
			t.Errorf("zero-WCET at m=2: %s verdict %v, want unknown (chain bounds abstain)", res.Test, res.Verdict)
		}
	}
	// m = 1 keeps the exact EDF verdict.
	edf, _ := analyze(t, tg, 1).Result(EDF)
	if edf.Verdict != Feasible {
		t.Errorf("zero-WCET at m=1: EDF verdict %v, want feasible (demand 10ms in 20ms)", edf.Verdict)
	}
	// m >= n is feasible but not certified for the list scheduler, whose
	// event engine defers zero-WCET completions.
	for _, res := range analyze(t, tg, 3).Results {
		if res.Verdict != Feasible || res.Certified {
			t.Errorf("zero-WCET at m=3: %s = %v (certified %v), want uncertified feasible", res.Test, res.Verdict, res.Certified)
		}
	}
}

// TestEmptyGraph covers the no-jobs frame (Derive rejects empty networks,
// so only hand-built graphs reach it): vacuously feasible, with every
// optional accessor reporting ok = false.
func TestEmptyGraph(t *testing.T) {
	tg := handGraph(rational.Zero, nil, nil)
	rep := analyze(t, tg, 2)
	if got := rep.Verdict(); got != Feasible {
		t.Errorf("empty frame verdict %v, want feasible", got)
	}
	if _, ok := rep.Workload.Critical(); ok {
		t.Error("empty frame has a critical window")
	}
	if lb := rep.Workload.MinProcessorsLB(); lb != 0 {
		t.Errorf("empty frame MinProcessorsLB = %d, want 0", lb)
	}
	for _, res := range rep.Results {
		if _, ok := res.Witness(); ok {
			t.Errorf("empty frame %s has a witness", res.Test)
		}
		if _, ok := res.Worst(); ok {
			t.Errorf("empty frame %s has a worst bound", res.Test)
		}
	}
}

// TestOverflowFallbackParity pins the analysis to the sched engine's
// timescale boundary: values at 2^40 ticks are analyzed, values beyond it
// (and graphs with no common denominator within int64) are rejected with
// the typed timescale error — the same graphs the scheduler rejects.
func TestOverflowFallbackParity(t *testing.T) {
	at := func(d int64) *taskgraph.TaskGraph {
		return handGraph(rational.FromInt(d), []*taskgraph.Job{
			{Proc: "p", K: 1, Arrival: rational.Zero, Deadline: rational.FromInt(d), WCET: rational.FromInt(1)},
		}, nil)
	}
	rep := analyze(t, at(rational.MaxTick), 1)
	if got := rep.Verdict(); got != Feasible {
		t.Errorf("deadline at 2^40 ticks: verdict %v, want feasible", got)
	}
	if _, err := Analyze(at(rational.MaxTick+1), 1, Options{}); !errors.As(err, new(*taskgraph.TimescaleError)) {
		t.Errorf("deadline beyond 2^40 ticks: error %v, want a timescale error", err)
	}
	// Hyperperiod-scale blow-up: denominators whose LCM leaves per-value
	// ticks beyond the guard.
	huge := handGraph(rational.FromInt(1), []*taskgraph.Job{
		{Proc: "p", K: 1, Arrival: rational.Zero, Deadline: rational.New(1, 1<<21), WCET: rational.New(1, 1<<22)},
		{Proc: "q", K: 1, Arrival: rational.Zero, Deadline: rational.New(1<<21, 3), WCET: rational.New(1, 3)},
	}, nil)
	_, err := Analyze(huge, 2, Options{})
	if !errors.As(err, new(*taskgraph.TimescaleError)) {
		t.Errorf("mixed denominators beyond the tick guard: error %v, want a timescale error", err)
	}
	if _, serr := sched.ListSchedule(huge, 2, sched.ALAPEDF); !errors.As(serr, new(*taskgraph.TimescaleError)) {
		t.Errorf("the scheduler accepts a graph the analysis rejects: %v", serr)
	}
}

// TestSpeedup pins the literature speedup bounds.
func TestSpeedup(t *testing.T) {
	if got, want := EDF.Speedup(2), rational.New(3, 2); !got.Equal(want) {
		t.Errorf("EDF speedup at m=2 = %v, want %v", got, want)
	}
	if got, want := DM.Speedup(2), rational.New(5, 2); !got.Equal(want) {
		t.Errorf("DM speedup at m=2 = %v, want %v", got, want)
	}
	if got, want := RTA.Speedup(4), rational.New(7, 4); !got.Equal(want) {
		t.Errorf("RTA speedup at m=4 = %v, want %v", got, want)
	}
}

// TestAnalyzeRejects covers the argument guards.
func TestAnalyzeRejects(t *testing.T) {
	if _, err := Analyze(nil, 2, Options{}); err == nil {
		t.Error("Analyze(nil) succeeded")
	}
	tg := handGraph(ms(100), nil, nil)
	if _, err := Analyze(tg, 0, Options{}); err == nil {
		t.Error("Analyze(m=0) succeeded")
	}
}

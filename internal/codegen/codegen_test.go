package codegen

import (
	"strings"
	"testing"

	"repro/internal/apps/fft"
	"repro/internal/apps/signal"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

func ms(n int64) Time { return rational.Milli(n) }

func signalSchedule(t *testing.T) *sched.Schedule {
	t.Helper()
	tg, err := taskgraph.Derive(signal.New())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.FindFeasible(tg, 2)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestGeneratedSystemMatchesRuntime is the tool-flow check: the FPPN +
// schedule translated to timed automata must execute exactly like the
// native static-order runtime — same outputs, same intervals, same skips.
func TestGeneratedSystemMatchesRuntime(t *testing.T) {
	s := signalSchedule(t)
	cfg := Config{
		Frames:         7,
		SporadicEvents: map[string][]Time{signal.CoefB: {ms(50), ms(420), ms(900)}},
		Inputs:         signal.Inputs(7),
	}
	prog, err := Generate(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	taRep, err := prog.Run()
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	native, err := p.Run(plan.Config{
		Frames:         cfg.Frames,
		SporadicEvents: cfg.SporadicEvents,
		Inputs:         signal.Inputs(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !core.SamplesEqual(native.Outputs, taRep.Outputs) {
		t.Errorf("TA outputs differ from native runtime: %s",
			core.DiffSamples(native.Outputs, taRep.Outputs))
	}
	if len(taRep.Misses) != len(native.Misses) {
		t.Errorf("TA misses %d vs native %d", len(taRep.Misses), len(native.Misses))
	}
	if len(taRep.Skipped) != len(native.Skipped) {
		t.Errorf("TA skips %d vs native %d", len(taRep.Skipped), len(native.Skipped))
	}
	if len(taRep.Entries) != len(native.Entries) {
		t.Fatalf("TA intervals %d vs native %d", len(taRep.Entries), len(native.Entries))
	}
	// Interval-for-interval equality (both run jobs at WCET).
	type iv struct{ label, start, end string }
	set := func(entries []sched.GanttEntry) map[iv]int {
		m := map[iv]int{}
		for _, e := range entries {
			m[iv{e.Label, e.Start.String(), e.End.String()}]++
		}
		return m
	}
	a, b := set(native.GanttEntries()), set(taRep.GanttEntries())
	for k, n := range a {
		if b[k] != n {
			t.Errorf("interval %v: native %d vs TA %d", k, n, b[k])
		}
	}
}

func TestGeneratedSystemMatchesZeroDelay(t *testing.T) {
	s := signalSchedule(t)
	events := map[string][]Time{signal.CoefB: {ms(120)}}
	prog, err := Generate(s, Config{
		Frames:         7,
		SporadicEvents: events,
		Inputs:         signal.Inputs(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := prog.Run()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.RunZeroDelay(signal.New(), ms(1400), core.ZeroDelayOptions{
		SporadicEvents: events,
		Inputs:         signal.Inputs(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !core.SamplesEqual(ref.Outputs, rep.Outputs) {
		t.Errorf("TA system diverges from zero-delay semantics: %s",
			core.DiffSamples(ref.Outputs, rep.Outputs))
	}
}

func TestGeneratedFFT(t *testing.T) {
	tg, err := taskgraph.Derive(fft.New())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.FindFeasible(tg, 2)
	if err != nil {
		t.Fatal(err)
	}
	frames := []fft.Frame{{1, 2, 3, 4}, {0, 1, 0, -1}}
	prog, err := Generate(s, Config{
		Frames: len(frames),
		Inputs: fft.Inputs(frames),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := prog.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Outputs[fft.ExtOut]
	if len(out) != len(frames) {
		t.Fatalf("%d output frames, want %d", len(out), len(frames))
	}
	for i, in := range frames {
		want := fft.DFT(in)
		got := out[i].Value.(fft.Frame)
		for k := 0; k < fft.N; k++ {
			d := got[k] - want[k]
			if real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
				t.Errorf("frame %d bin %d: %v vs %v", i, k, got[k], want[k])
			}
		}
	}
	if len(rep.Misses) != 0 {
		t.Errorf("misses: %v", rep.Misses)
	}
}

func TestGenerateStructure(t *testing.T) {
	s := signalSchedule(t)
	prog, err := Generate(s, Config{Frames: 1, RecordTATrace: true})
	if err != nil {
		t.Fatal(err)
	}
	// 6 periodic generators + 1 sporadic script + 2 schedulers.
	if got := len(prog.TA.Automata); got != 9 {
		t.Errorf("%d automata, want 9", got)
	}
	dot := prog.TA.DOT()
	for _, want := range []string{"gen_InputA", "script_CoefB", "sched_M1", "sched_M2"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	if _, err := prog.Run(); err != nil {
		t.Fatal(err)
	}
	if len(prog.TATrace()) == 0 {
		t.Error("no TA trace recorded")
	}
}

func TestGenerateErrors(t *testing.T) {
	s := signalSchedule(t)
	if _, err := Generate(s, Config{Frames: 0}); err == nil {
		t.Error("zero frames accepted")
	}
	if _, err := Generate(s, Config{Frames: 1,
		SporadicEvents: map[string][]Time{"ghost": {ms(1)}}}); err == nil {
		t.Error("unknown sporadic process accepted")
	}
	// Infeasible schedules are rejected: build one on a single processor
	// (the Fig. 3 graph has load 1.5).
	tg, err := taskgraph.Derive(signal.New())
	if err != nil {
		t.Fatal(err)
	}
	bad, err := sched.ListSchedule(tg, 1, sched.ALAPEDF)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(bad, Config{Frames: 1}); err == nil {
		t.Error("infeasible schedule accepted")
	}
}

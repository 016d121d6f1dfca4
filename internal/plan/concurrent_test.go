package plan

import (
	"slices"
	"testing"

	"repro/internal/apps/signal"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

func TestConcurrentMatchesSequentialRun(t *testing.T) {
	events := map[string][]Time{signal.CoefB: {ms(50), ms(350), ms(900)}}
	inputs := signal.Inputs(7)
	cfg := Config{Frames: 7, SporadicEvents: events, Inputs: inputs}

	s := signalSchedule(t)
	seq, err := runOnce(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The goroutine-based runner really races; repeat to give the
	// scheduler chances to interleave differently.
	for round := 0; round < 10; round++ {
		conc, err := runConcurrentOnce(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !core.SamplesEqual(seq.Outputs, conc.Outputs) {
			t.Fatalf("round %d: outputs differ: %s", round,
				core.DiffSamples(seq.Outputs, conc.Outputs))
		}
		if len(conc.Misses) != len(seq.Misses) {
			t.Fatalf("round %d: %d misses vs %d", round, len(conc.Misses), len(seq.Misses))
		}
		if len(conc.Skipped) != len(seq.Skipped) {
			t.Fatalf("round %d: %d skips vs %d", round, len(conc.Skipped), len(seq.Skipped))
		}
		if !conc.Makespan.Equal(seq.Makespan) {
			t.Fatalf("round %d: makespan %v vs %v", round, conc.Makespan, seq.Makespan)
		}
		if len(conc.Entries) != len(seq.Entries) {
			t.Fatalf("round %d: %d intervals vs %d", round, len(conc.Entries), len(seq.Entries))
		}
	}
}

func TestConcurrentVirtualTimingExact(t *testing.T) {
	// With deterministic execution times the virtual start/end instants
	// must match the discrete-event computation interval-for-interval.
	s := signalSchedule(t)
	cfg := Config{
		Frames:         2,
		SporadicEvents: map[string][]Time{signal.CoefB: {ms(50)}},
		Inputs:         signal.Inputs(2),
		Overhead:       platform.OverheadModel{FirstFrameBase: ms(5), FrameBase: ms(3)},
	}
	seq, err := runOnce(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := runConcurrentOnce(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	type iv struct {
		label      string
		start, end string
	}
	collect := func(entries []sched.GanttEntry) map[iv]bool {
		m := make(map[iv]bool)
		for _, e := range entries {
			m[iv{e.Label, e.Start.String(), e.End.String()}] = true
		}
		return m
	}
	a, b := collect(seq.GanttEntries()), collect(conc.GanttEntries())
	if len(a) != len(b) {
		t.Fatalf("%d vs %d distinct intervals", len(a), len(b))
	}
	for k := range a {
		if !b[k] {
			t.Errorf("interval %v missing from concurrent run", k)
		}
	}
}

func TestConcurrentWithJitterMatchesZeroDelay(t *testing.T) {
	events := map[string][]Time{signal.CoefB: {ms(120), ms(600)}}
	inputs := signal.Inputs(7)
	ref, err := core.RunZeroDelay(signal.New(), ms(1400), core.ZeroDelayOptions{
		SporadicEvents: events, Inputs: inputs, Seed: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	jitter, err := platform.JitterExec(17, rational.New(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	s := signalSchedule(t)
	rep, err := runConcurrentOnce(s, Config{
		Frames: 7, SporadicEvents: events, Inputs: inputs, Exec: jitter,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Misses) != 0 {
		t.Errorf("misses under jitter: %v", rep.Misses)
	}
	if !core.SamplesEqual(ref.Outputs, rep.Outputs) {
		t.Errorf("concurrent outputs diverge from zero-delay: %s",
			core.DiffSamples(ref.Outputs, rep.Outputs))
	}
}

func TestConcurrentManyProcessors(t *testing.T) {
	// A wide fork-join network spread over four processors exercises the
	// virtual clock with real parallel slack.
	n := core.NewNetwork("wide")
	n.AddPeriodic("src", ms(100), ms(100), ms(5), core.BehaviorFunc(func(ctx *core.JobContext) error {
		for _, c := range []string{"c0", "c1", "c2", "c3"} {
			ctx.Write(c, int(ctx.K()))
		}
		return nil
	}))
	n.AddPeriodic("sink", ms(100), ms(100), ms(5), core.BehaviorFunc(func(ctx *core.JobContext) error {
		sum := 0
		for i := 0; i < 4; i++ {
			if v, ok := ctx.Read("d" + string(rune('0'+i))); ok {
				sum += v.(int)
			}
		}
		ctx.WriteOutput("O", sum)
		return nil
	}))
	n.Output("sink", "O")
	for i := 0; i < 4; i++ {
		name := string(rune('a' + i))
		ch := "c" + string(rune('0'+i))
		out := "d" + string(rune('0'+i))
		n.AddPeriodic(name, ms(100), ms(100), ms(20), core.BehaviorFunc(func(ctx *core.JobContext) error {
			if v, ok := ctx.Read(ch); ok {
				ctx.Write(out, v.(int)*2)
			}
			return nil
		}))
		n.Connect("src", name, ch, core.FIFO)
		n.Connect(name, "sink", out, core.FIFO)
		n.Priority("src", name)
		n.Priority(name, "sink")
	}
	tg, err := taskgraph.Derive(n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.FindFeasible(tg, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runConcurrentOnce(s, Config{Frames: 3})
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Outputs["O"]
	if len(out) != 3 {
		t.Fatalf("%d sink outputs, want 3", len(out))
	}
	for i, s := range out {
		want := (i + 1) * 2 * 4
		if s.Value.(int) != want {
			t.Errorf("O[%d] = %v, want %d", i+1, s.Value, want)
		}
	}
	if len(rep.Misses) != 0 {
		t.Errorf("misses: %v", rep.Misses)
	}
}

func TestConcurrentErrors(t *testing.T) {
	s := signalSchedule(t)
	if _, err := runConcurrentOnce(s, Config{Frames: 0}); err == nil {
		t.Error("zero frames accepted")
	}
	if _, err := runConcurrentOnce(s, Config{Frames: 1,
		SporadicEvents: map[string][]Time{"ghost": {ms(1)}}}); err == nil {
		t.Error("unknown sporadic process accepted")
	}
	if _, err := runConcurrentOnce(s, Config{Frames: 1,
		Exec: func(j *taskgraph.Job, frame int) Time { return ms(-1) }}); err == nil {
		t.Error("negative execution time accepted")
	}
}

// TestConcurrentEntryOrderOnTies pins RunConcurrent's merged entry order
// where start and processor tie: zero-length intervals at one instant on
// one processor come out ordered by job name as a string ("x[10]" before
// "x[1]"), not by job index or static order.
func TestConcurrentEntryOrderOnTies(t *testing.T) {
	net := core.NewNetwork("ties")
	net.AddMultiPeriodic("x", 12, ms(100), ms(100), ms(1), core.NopBehavior)
	net.AddPeriodic("a", ms(100), ms(100), ms(1), core.NopBehavior)
	tg, err := taskgraph.Derive(net)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ListSchedule(tg, 1, sched.ALAPEDF)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Frames: 1, Exec: func(*taskgraph.Job, int) Time { return rational.Zero }}
	rep, err := runConcurrentOnce(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range rep.Entries {
		if e.Start != 0 || e.End != 0 || e.Proc != 0 {
			t.Fatalf("entry %+v: want a zero-length interval at 0 on processor 0", e)
		}
		got = append(got, tg.Jobs[e.Job].Name())
	}
	want := []string{"a[1]", "x[10]", "x[11]", "x[12]", "x[1]", "x[2]", "x[3]", "x[4]", "x[5]", "x[6]", "x[7]", "x[8]", "x[9]"}
	if !slices.Equal(got, want) {
		t.Errorf("entries in order %v, want %v", got, want)
	}
}

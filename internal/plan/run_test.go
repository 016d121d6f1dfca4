package plan

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/apps/signal"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

func ms(n int64) Time { return rational.Milli(n) }

// runOnce and runConcurrentOnce compile s and execute it once: the one-shot
// form the behaviour tests below are written in.
func runOnce(s *sched.Schedule, cfg Config) (*Report, error) {
	p, err := Compile(s)
	if err != nil {
		return nil, err
	}
	return p.Run(cfg)
}

func runConcurrentOnce(s *sched.Schedule, cfg Config) (*Report, error) {
	p, err := Compile(s)
	if err != nil {
		return nil, err
	}
	return p.RunConcurrent(cfg)
}

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

func TestRunMeetsDeadlinesOnFeasibleSchedule(t *testing.T) {
	s := signalSchedule(t)
	rep, err := runOnce(s, Config{
		Frames:         7, // one full sporadic period (7 × 200 ms = 1400 ms)
		SporadicEvents: map[string][]Time{signal.CoefB: {ms(50), ms(350), ms(900)}},
		Inputs:         signal.Inputs(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Misses) != 0 {
		t.Errorf("deadline misses on feasible schedule: %v", rep.Misses)
	}
	// 2 CoefB server jobs per frame × 7 frames − 3 real events = 11 skips.
	if len(rep.Skipped) != 11 {
		t.Errorf("%d skipped server jobs, want 11", len(rep.Skipped))
	}
	if rep.Makespan.Sign() <= 0 {
		t.Error("empty makespan")
	}
}

// TestProposition41Equivalence is the core correctness claim: the real-time
// static-order execution produces exactly the channel values of the
// zero-delay semantics, for WCET execution and for jittered execution times.
func TestProposition41Equivalence(t *testing.T) {
	events := map[string][]Time{signal.CoefB: {ms(50), ms(350), ms(900), ms(1150)}}
	inputs := signal.Inputs(7)

	ref, err := core.RunZeroDelay(signal.New(), ms(1400), core.ZeroDelayOptions{
		SporadicEvents: events,
		Inputs:         inputs,
		Seed:           -1,
	})
	if err != nil {
		t.Fatal(err)
	}

	jitter, err := platform.JitterExec(3, rational.New(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	execModels := map[string]platform.ExecModel{
		"wcet":   platform.WCETExec(),
		"jitter": jitter,
	}
	for name, em := range execModels {
		s := signalSchedule(t)
		rep, err := runOnce(s, Config{
			Frames:         7,
			SporadicEvents: events,
			Exec:           em,
			Inputs:         inputs,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rep.Misses) != 0 {
			t.Errorf("%s: unexpected misses: %v", name, rep.Misses)
		}
		if !core.SamplesEqual(ref.Outputs, rep.Outputs) {
			t.Errorf("%s: outputs differ from zero-delay semantics: %s",
				name, core.DiffSamples(ref.Outputs, rep.Outputs))
		}
	}
}

// TestBoundaryRule reproduces Fig. 2's boundary case: a sporadic event
// falling exactly on a user-period boundary b is handled in the subset
// arriving at b when the sporadic process has priority over its user
// (right-closed window (a, b]) and postponed to the next subset otherwise.
func TestBoundaryRule(t *testing.T) {
	build := func(sporadicOverUser bool) *sched.Schedule {
		n := core.NewNetwork("boundary")
		n.AddPeriodic("u", ms(100), ms(100), ms(10), core.BehaviorFunc(func(ctx *core.JobContext) error {
			v, _ := ctx.Read("cfg")
			ctx.WriteOutput("O", v)
			return nil
		}))
		n.AddSporadic("s", 1, ms(100), ms(150), ms(5), &stamper{})
		n.ConnectInit("s", "u", "cfg", 0)
		if sporadicOverUser {
			n.Priority("s", "u")
		} else {
			n.Priority("u", "s")
		}
		n.Output("u", "O")
		tg, err := taskgraph.Derive(n)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.FindFeasible(tg, 2)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	for _, tc := range []struct {
		name            string
		sporadicFirst   bool
		wantSecondFrame int // value of O sample at the frame containing t=100
		wantThirdFrame  int
	}{
		{"s->u handles boundary event in current subset", true, 1, 1},
		{"u->s postpones boundary event to next subset", false, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := build(tc.sporadicFirst)
			rep, err := runOnce(s, Config{
				Frames:         4,
				SporadicEvents: map[string][]Time{"s": {ms(100)}},
			})
			if err != nil {
				t.Fatal(err)
			}
			out := rep.Outputs["O"]
			if len(out) != 4 {
				t.Fatalf("%d output samples, want 4", len(out))
			}
			if got := out[1].Value.(int); got != tc.wantSecondFrame {
				t.Errorf("u[2] read cfg = %d, want %d", got, tc.wantSecondFrame)
			}
			if got := out[2].Value.(int); got != tc.wantThirdFrame {
				t.Errorf("u[3] read cfg = %d, want %d", got, tc.wantThirdFrame)
			}
			// And the runtime must agree with the zero-delay reference.
			net := s.TG.Net
			ref, err := core.RunZeroDelay(net, ms(400), core.ZeroDelayOptions{
				SporadicEvents: map[string][]Time{"s": {ms(100)}},
				Seed:           -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !core.SamplesEqual(ref.Outputs, rep.Outputs) {
				t.Errorf("runtime disagrees with zero-delay: %s",
					core.DiffSamples(ref.Outputs, rep.Outputs))
			}
		})
	}
}

// stamper writes its invocation count to its single output channel.
type stamper struct{ n int }

func (s *stamper) Init() { s.n = 0 }
func (s *stamper) Step(ctx *core.JobContext) error {
	s.n++
	ctx.Write("cfg", s.n)
	return nil
}
func (s *stamper) Clone() core.Behavior { return &stamper{} }

// TestSporadicEarlyInvocation: a sporadic event before its subset boundary
// lets the server job start before its nominal arrival A_i ("the invocation
// occurs either at time A_i or earlier").
func TestSporadicEarlyInvocation(t *testing.T) {
	n := core.NewNetwork("early")
	n.AddPeriodic("w", ms(100), ms(100), ms(10), nil) // user, period 100 ms
	n.AddPeriodic("u", ms(200), ms(200), ms(10), nil) // stretches H to 200 ms
	n.AddSporadic("s", 1, ms(200), ms(250), ms(10), nil)
	n.Connect("s", "w", "cfg", core.Blackboard)
	n.Priority("s", "w")
	tg, err := taskgraph.Derive(n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.FindFeasible(tg, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Event at 10 ms -> window (0, 100] -> subset boundary A = 100 ms,
	// still inside frame 0; invocation sync completes at 10 ms, so the
	// server job may start well before its nominal arrival.
	rep, err := runOnce(s, Config{
		Frames:         1,
		SporadicEvents: map[string][]Time{"s": {ms(10)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, e := range rep.GanttEntries() {
		if strings.HasPrefix(e.Label, "s[") {
			found = true
			if !e.Start.Less(ms(100)) {
				t.Errorf("server job started at %v, expected before its nominal arrival 100ms", e.Start)
			}
		}
	}
	if !found {
		t.Fatal("server job was not executed")
	}
	// The subset at boundary 0 had no event: one skip.
	if len(rep.Skipped) != 1 {
		t.Errorf("%d skips, want 1", len(rep.Skipped))
	}
}

func TestEventBeyondLastHandledWindowRejected(t *testing.T) {
	// With a single 200 ms frame, an event at 10 ms belongs to the server
	// window (0, 200] whose subset arrives at 200 ms — after the run.
	// The runtime must reject it rather than silently drop it.
	s := signalSchedule(t)
	_, err := runOnce(s, Config{
		Frames:         1,
		SporadicEvents: map[string][]Time{signal.CoefB: {ms(10)}},
	})
	if err == nil || !strings.Contains(err.Error(), "extend Frames") {
		t.Errorf("Run = %v, want lost-event error", err)
	}
}

func TestOverheadCausesMisses(t *testing.T) {
	// A single process whose WCET fills 80% of its period: any frame
	// overhead above 20% of the period must produce misses on every
	// frame, with the first frame's (larger) overhead producing the
	// maximum lateness.
	n := core.NewNetwork("tight")
	n.AddPeriodic("p", ms(100), ms(100), ms(80), nil)
	tg, err := taskgraph.Derive(n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.FindFeasible(tg, 1)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := runOnce(s, Config{
		Frames: 3,
		Overhead: platform.OverheadModel{
			FirstFrameBase: ms(41),
			FrameBase:      ms(25),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Misses) != 3 {
		t.Fatalf("%d misses, want 3: %v", len(rep.Misses), rep.Misses)
	}
	if !rep.MaxLateness.Equal(ms(21)) {
		t.Errorf("max lateness = %v, want 21ms (41 + 80 − 100)", rep.MaxLateness)
	}
	// Without overhead the same schedule is clean.
	clean, err := runOnce(s, Config{Frames: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Misses) != 0 {
		t.Errorf("misses without overhead: %v", clean.Misses)
	}
}

func TestRunErrors(t *testing.T) {
	s := signalSchedule(t)
	if _, err := runOnce(s, Config{Frames: 0}); err == nil {
		t.Error("zero frames accepted")
	}
	if _, err := runOnce(s, Config{Frames: 1,
		SporadicEvents: map[string][]Time{"ghost": {ms(0)}}}); err == nil {
		t.Error("unknown sporadic process accepted")
	}
	if _, err := runOnce(s, Config{Frames: 1,
		SporadicEvents: map[string][]Time{signal.InputA: {ms(0)}}}); err == nil {
		t.Error("events for periodic process accepted")
	}
	if _, err := runOnce(s, Config{Frames: 1,
		SporadicEvents: map[string][]Time{signal.CoefB: {ms(500)}}}); err == nil {
		t.Error("event beyond horizon accepted")
	}
	if _, err := runOnce(s, Config{Frames: 1,
		SporadicEvents: map[string][]Time{signal.CoefB: {ms(0), ms(1), ms(2)}}}); err == nil {
		t.Error("sporadic burst violation accepted")
	}
	if _, err := runOnce(s, Config{Frames: 1,
		Exec: func(j *taskgraph.Job, frame int) Time { return ms(-1) }}); err == nil {
		t.Error("negative execution time accepted")
	}
}

func TestReportRendering(t *testing.T) {
	s := signalSchedule(t)
	rep, err := runOnce(s, Config{Frames: 2, Inputs: signal.Inputs(2)})
	if err != nil {
		t.Fatal(err)
	}
	g := rep.Gantt(100)
	if !strings.Contains(g, "M1") || !strings.Contains(g, "M2") {
		t.Errorf("Gantt missing rows:\n%s", g)
	}
	if !strings.Contains(rep.Summary(), "2 frames") {
		t.Errorf("Summary = %q", rep.Summary())
	}
}

func TestFramesDoNotOverlapOnFeasibleSchedule(t *testing.T) {
	s := signalSchedule(t)
	rep, err := runOnce(s, Config{Frames: 4, Inputs: signal.Inputs(4)})
	if err != nil {
		t.Fatal(err)
	}
	h := s.TG.Hyperperiod
	for _, e := range rep.GanttEntries() {
		frame := e.Start.FloorDiv(h)
		frameEnd := h.MulInt(frame + 1)
		if frameEnd.Less(e.End) {
			t.Errorf("interval %s [%v, %v) spills past its frame", e.Label, e.Start, e.End)
		}
	}
}

// TestProp41Property: random sporadic event patterns and execution-time
// jitter never cause misses or divergence from zero-delay outputs.
func TestProp41Property(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 15; trial++ {
		frames := 7
		horizon := ms(int64(frames) * 200)
		// Random CoefB events honouring 2-per-700ms.
		var events []Time
		tPrev := int64(0)
		for {
			tPrev += 350 + int64(rng.Intn(400))
			// Keep every event's handling window inside the run: the
			// window of an event at τ ends at ⌈τ/200⌉·200, which must
			// stay below frames·200.
			if tPrev > 200*int64(frames)-200 {
				break
			}
			events = append(events, ms(tPrev))
		}
		ev := map[string][]Time{signal.CoefB: events}
		inputs := signal.Inputs(frames)

		ref, err := core.RunZeroDelay(signal.New(), horizon, core.ZeroDelayOptions{
			SporadicEvents: ev, Inputs: inputs, Seed: int64(trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		jitter, err := platform.JitterExec(int64(trial), rational.New(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		s := signalSchedule(t)
		rep, err := runOnce(s, Config{
			Frames: frames, SporadicEvents: ev, Exec: jitter, Inputs: inputs,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Misses) != 0 {
			t.Fatalf("trial %d: misses %v", trial, rep.Misses)
		}
		if !core.SamplesEqual(ref.Outputs, rep.Outputs) {
			t.Fatalf("trial %d: %s", trial, core.DiffSamples(ref.Outputs, rep.Outputs))
		}
	}
}

// TestRunRejectsTimingBeyondTicks feeds runs whose timing has no int64
// timescale or lies beyond the 2^60-tick guard: both engines must return an
// rt: error instead of panicking or overflowing.
func TestRunRejectsTimingBeyondTicks(t *testing.T) {
	s := signalSchedule(t)
	const mersenne61 = int64(1)<<61 - 1 // prime, so its lcm with the plan's denominator overflows
	cases := []struct {
		name string
		cfg  Config
	}{
		{"execution time off every int64 timescale", Config{Frames: 1,
			Exec: func(j *taskgraph.Job, frame int) Time { return rational.New(1, mersenne61) }}},
		{"event time off every int64 timescale", Config{Frames: 7,
			SporadicEvents: map[string][]Time{signal.CoefB: {rational.New(1, mersenne61)}}}},
		{"horizon beyond the guard", Config{Frames: 100,
			Exec: func(j *taskgraph.Job, frame int) Time { return rational.New(1, 1<<55) }}},
		{"overhead beyond the guard", Config{Frames: 1,
			Overhead: platform.OverheadModel{FirstFrameBase: rational.New(1<<61, 1)}}},
	}
	for _, c := range cases {
		for _, engine := range []struct {
			name string
			run  func(*sched.Schedule, Config) (*Report, error)
		}{{"Run", runOnce}, {"RunConcurrent", runConcurrentOnce}} {
			_, err := engine.run(s, c.cfg)
			if err == nil || !strings.HasPrefix(err.Error(), "rt: ") {
				t.Errorf("%s, %s: err = %v, want an rt: error", c.name, engine.name, err)
			}
		}
	}
}

// TestCompileRejectsJobWithWrongPid: Compile checks that every job's Pid
// is in range and names the job's process, so a hand-built job whose Pid
// was left at 0 fails loudly instead of executing another process.
func TestCompileRejectsJobWithWrongPid(t *testing.T) {
	s := signalSchedule(t)
	tg := s.TG
	np := len(tg.Net.Processes())
	for _, pid := range []int{-1, 0, np} {
		hand := &taskgraph.TaskGraph{Net: tg.Net, Hyperperiod: tg.Hyperperiod,
			ServerPeriod: tg.ServerPeriod, IncludeRight: tg.IncludeRight, User: tg.User,
			Succ: tg.Succ, Pred: tg.Pred}
		for _, j := range tg.Jobs {
			c := *j
			hand.Jobs = append(hand.Jobs, &c)
		}
		victim := hand.Jobs[len(hand.Jobs)-1]
		if victim.Pid == pid {
			t.Fatalf("job %s already has pid %d", victim.Name(), pid)
		}
		if _, err := Compile(&sched.Schedule{TG: hand, M: s.M, Assign: s.Assign}); err != nil {
			t.Fatalf("hand-built copy rejected: %v", err)
		}
		victim.Pid = pid
		_, err := Compile(&sched.Schedule{TG: hand, M: s.M, Assign: s.Assign})
		if err == nil || !strings.Contains(err.Error(), "does not name its process") {
			t.Errorf("pid %d on %s: Compile error %v, want a pid mismatch", pid, victim.Name(), err)
		}
	}
}

// Differential harness for the compiled execution plans: the interned
// engines behind core.RunZeroDelay, Plan.Run and Plan.RunConcurrent must
// agree byte-for-byte with the string-keyed reference implementations kept
// as oracles in runtime_reference_test.go (runZeroDelayReference,
// runReference, runConcurrentReference, planInvocationsReference). Checked
// on the three paper applications and on a corpus of random networks;
// runtime reports are compared through their canonical JSON serialization,
// zero-delay results field by field.
package integration

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/apps/fft"
	"repro/internal/apps/fms"
	"repro/internal/apps/signal"
	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/nettest"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// reportJSON serializes a runtime report canonically.
func reportJSON(t *testing.T, rep *plan.Report) string {
	t.Helper()
	text, err := export.MarshalIndent(export.Report(rep))
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// comparePlanAgainstReferences runs all three compiled engines and their
// references on one (net, schedule, config) case and demands agreement.
func comparePlanAgainstReferences(t *testing.T, net *core.Network, s *sched.Schedule,
	horizon core.Time, cfg plan.Config, zopts core.ZeroDelayOptions) {
	t.Helper()

	// Zero-delay: the interned CompiledNet engine against the string-keyed
	// reference. Field-by-field equality covers the job sequence, the
	// action trace, the outputs and the final channel states.
	zgot, err := core.RunZeroDelay(net, horizon, zopts)
	if err != nil {
		t.Fatalf("compiled zero-delay: %v", err)
	}
	zwant, err := runZeroDelayReference(net, horizon, zopts)
	if err != nil {
		t.Fatalf("reference zero-delay: %v", err)
	}
	if !reflect.DeepEqual(zgot, zwant) {
		t.Fatalf("compiled zero-delay diverges from reference: %s",
			core.DiffSamples(zwant.Outputs, zgot.Outputs))
	}

	// Discrete-event runtime.
	p, err := plan.Compile(s)
	if err != nil {
		t.Fatalf("plan.Compile: %v", err)
	}
	rgot, err := p.Run(cfg)
	if err != nil {
		t.Fatalf("compiled Plan.Run: %v", err)
	}
	rwant, err := runReference(s, cfg)
	if err != nil {
		t.Fatalf("runReference: %v", err)
	}
	if got, want := reportJSON(t, rgot), reportJSON(t, rwant); got != want {
		t.Fatalf("compiled run report JSON diverges from reference")
	}
	if !reflect.DeepEqual(rgot.Outputs, rwant.Outputs) {
		t.Fatalf("compiled run outputs diverge: %s",
			core.DiffSamples(rwant.Outputs, rgot.Outputs))
	}

	// Goroutine-per-processor runtime.
	cgot, err := p.RunConcurrent(cfg)
	if err != nil {
		t.Fatalf("compiled Plan.RunConcurrent: %v", err)
	}
	cwant, err := runConcurrentReference(s, cfg)
	if err != nil {
		t.Fatalf("runConcurrentReference: %v", err)
	}
	if got, want := reportJSON(t, cgot), reportJSON(t, cwant); got != want {
		t.Fatalf("compiled concurrent report JSON diverges from reference")
	}
}

// TestPlanMatchesReferencePaperApps pins the compiled engines to the
// references on the paper's three applications, with sporadic events on
// signal and FMS and the MPPA overhead model on FFT.
func TestPlanMatchesReferencePaperApps(t *testing.T) {
	cases := []struct {
		name   string
		build  func() *core.Network
		m      int
		frames int
		inputs map[string][]core.Value
		events map[string][]core.Time
		over   platform.OverheadModel
	}{
		{
			name: "signal", build: signal.New, m: 2, frames: 7,
			inputs: signal.Inputs(7),
			events: map[string][]core.Time{signal.CoefB: {rational.Milli(50), rational.Milli(400)}},
		},
		{
			name: "fft", build: fft.New, m: 2, frames: 3,
			inputs: fft.Inputs([]fft.Frame{{1, 2, 3, 4}, {5, 6, 7, 8}, {2, 4, 6, 8}}),
			over:   platform.MPPAFFTOverhead(),
		},
		{
			name: "fms", build: fms.New, m: 1, frames: 1,
			inputs: fms.Inputs(50),
			events: map[string][]core.Time{
				fms.AnemoConfig:      {rational.Milli(40)},
				fms.MagnDeclinConfig: {rational.Milli(500)},
			},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			net := c.build()
			tg, err := taskgraph.Derive(net)
			if err != nil {
				t.Fatal(err)
			}
			s, err := sched.FindFeasible(tg, c.m)
			if err != nil {
				t.Fatal(err)
			}
			horizon := tg.Hyperperiod.MulInt(int64(c.frames))
			cfg := plan.Config{
				Frames: c.frames, SporadicEvents: c.events,
				Inputs: c.inputs, Overhead: c.over,
			}
			zopts := core.ZeroDelayOptions{
				SporadicEvents: c.events, Inputs: c.inputs, RecordTrace: true,
			}
			comparePlanAgainstReferences(t, net, s, horizon, cfg, zopts)
		})
	}
}

// TestPlanMatchesReferenceRandomNetworks sweeps ≥50 random networks (raise
// with FPPN_FUZZ_TRIALS): every compiled engine must agree with its
// reference under random sporadic events, external inputs and
// execution-time jitter.
func TestPlanMatchesReferenceRandomNetworks(t *testing.T) {
	const frames = 2
	type planCase struct {
		net     *core.Network
		tg      *taskgraph.TaskGraph
		horizon core.Time
		events  map[string][]core.Time
		inputs  map[string][]core.Value
		m       int
	}
	trials := trialCount(t, 50)
	rng := rand.New(rand.NewSource(31415))
	cases := make([]planCase, trials)
	for trial := range cases {
		net := nettest.Random(rng, nettest.Options{})
		tg, err := taskgraph.Derive(net)
		if err != nil {
			t.Fatalf("trial %d: derive: %v", trial, err)
		}
		horizon := tg.Hyperperiod.MulInt(frames)
		cases[trial] = planCase{
			net:     net,
			tg:      tg,
			horizon: horizon,
			events:  nettest.RandomEvents(rng, net, horizon),
			inputs:  nettest.Inputs(net, 200),
			m:       2 + rng.Intn(3),
		}
	}

	for trial, c := range cases {
		trial, c := trial, c
		t.Run(fmt.Sprintf("net%03d", trial), func(t *testing.T) {
			t.Parallel()
			s, err := sched.FindFeasible(c.tg, c.m)
			if err != nil {
				s, err = sched.FindFeasible(c.tg, len(c.tg.Jobs))
				if err != nil {
					t.Fatalf("no feasible schedule at all: %v", err)
				}
			}
			jitter, err := platform.JitterExec(int64(trial), rational.New(1, 2))
			if err != nil {
				t.Fatal(err)
			}
			cfg := plan.Config{
				Frames: frames, SporadicEvents: c.events,
				Inputs: c.inputs, Exec: jitter,
			}
			zopts := core.ZeroDelayOptions{
				SporadicEvents: c.events, Inputs: c.inputs,
				Seed:        int64(trial) - 1, // covers the default order and random extensions
				RecordTrace: trial%3 == 0,
			}
			comparePlanAgainstReferences(t, c.net, s, c.horizon, cfg, zopts)
		})
	}
}

// lowerInvocations plans a run's invocations the way every engine does,
// through plan.Compile(s).Lower, on a one-processor schedule of tg (the
// invocation plan reads only the task graph), and cuts the result into
// frames.
func lowerInvocations(t *testing.T, tg *taskgraph.TaskGraph, frames int, events map[string][]core.Time) ([][]plan.JobPlan, error) {
	t.Helper()
	s, err := sched.ListSchedule(tg, 1, sched.ALAPEDF)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	p, err := plan.Compile(s)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	flat, _, err := p.Lower(plan.Config{Frames: frames, SporadicEvents: events})
	if err != nil {
		return nil, err
	}
	n := len(tg.Jobs)
	out := make([][]plan.JobPlan, frames)
	for f := range out {
		out[f] = flat[f*n : (f+1)*n]
	}
	return out, nil
}

// TestPlanInvocationsMatchesReference sweeps random networks with random
// event schedules: the index-arithmetic planner behind Plan.Lower must
// reproduce the windowed-map reference frame for frame.
func TestPlanInvocationsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	for trial := 0; trial < 40; trial++ {
		net := nettest.Random(rng, nettest.Options{})
		tg, err := taskgraph.Derive(net)
		if err != nil {
			t.Fatalf("trial %d: derive: %v", trial, err)
		}
		frames := 1 + rng.Intn(4)
		horizon := tg.Hyperperiod.MulInt(int64(frames))
		events := nettest.RandomEvents(rng, net, horizon)

		got, gotErr := lowerInvocations(t, tg, frames, events)
		want, wantErr := planInvocationsReference(tg, frames, events)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: error mismatch: plan %v, reference %v", trial, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("trial %d: error text mismatch:\nplan:      %v\nreference: %v",
					trial, gotErr, wantErr)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: invocation plan diverges from reference (frames=%d, events=%v)",
				trial, frames, events)
		}
	}
}

// TestPlanInvocationsErrorParity drives the planner's rejection paths on a
// single-sporadic network and demands the exact reference error text:
// beyond-horizon events, windows ending after the last frame, unknown and
// non-sporadic processes.
func TestPlanInvocationsErrorParity(t *testing.T) {
	n := core.NewNetwork("err-parity")
	n.AddPeriodic("u", rational.Milli(100), rational.Milli(100), rational.Milli(10), nil)
	n.AddSporadic("s", 1, rational.Milli(100), rational.Milli(150), rational.Milli(5), nil)
	n.Connect("s", "u", "cfg", core.Blackboard)
	n.Priority("s", "u")
	tg, err := taskgraph.Derive(n)
	if err != nil {
		t.Fatal(err)
	}
	cases := []map[string][]core.Time{
		{"s": {rational.Milli(1000)}},                      // beyond the 2-frame horizon
		{"s": {rational.Milli(150)}},                       // window ends after the last frame
		{"s": {rational.Milli(10), rational.Milli(1000)}},  // horizon error must win over placement
		{"s": {rational.Milli(150), rational.Milli(1000)}}, // horizon error must win over late window
		{"ghost": {rational.Milli(10)}},                    // unknown process
		{"u": {rational.Milli(10)}},                        // periodic process cannot take events
	}
	for i, events := range cases {
		_, gotErr := lowerInvocations(t, tg, 2, events)
		_, wantErr := planInvocationsReference(tg, 2, events)
		if wantErr == nil || gotErr == nil {
			t.Fatalf("case %d: expected both engines to reject %v (plan %v, reference %v)",
				i, events, gotErr, wantErr)
		}
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("case %d: error text mismatch:\nplan:      %v\nreference: %v",
				i, gotErr, wantErr)
		}
	}
}

// pipelineSporadicNet is the 3-stage pipeline chain of internal/plan/pipeline_test.go
// plus a sporadic configurator feeding the middle stage. The priority
// direction selects the Fig. 2 boundary rule: S→B gives the right-closed
// window (b−T', b], B→S the left-closed [b−T', b).
func pipelineSporadicNet(sporadicFirst bool) *core.Network {
	net := core.NewNetwork("pipe-sporadic")
	var prev string
	for i := 0; i < 3; i++ {
		name := string(rune('A' + i))
		net.AddPeriodic(name, rational.Milli(100), rational.Milli(300), rational.Milli(40), core.BehaviorFunc(func(ctx *core.JobContext) error {
			sum := int(ctx.K())
			for _, in := range ctx.Inputs() {
				if v, ok := ctx.Read(in); ok {
					sum += v.(int)
				}
			}
			for _, out := range ctx.Outputs() {
				ctx.Write(out, sum)
			}
			for _, ext := range ctx.ExternalOutputs() {
				ctx.WriteOutput(ext, sum)
			}
			return nil
		}))
		if prev != "" {
			net.Connect(prev, name, prev+name, core.FIFO)
			net.Priority(prev, name)
		}
		prev = name
	}
	net.AddSporadic("S", 1, rational.Milli(100), rational.Milli(150), rational.Milli(5), &stamper{})
	net.ConnectInit("S", "B", "cfg", 0)
	if sporadicFirst {
		net.Priority("S", "B")
	} else {
		net.Priority("B", "S")
	}
	net.Output("C", "OUT")
	return net
}

// TestPipelinedSporadicStraddlingFrames runs the pipelined engine with
// sporadic events on and around the 100 ms hyperperiod boundary under both
// window rules. An event exactly at a boundary b is handled in the window
// ending at b under (b−T', b] but pushed into the next frame's window under
// [b−T', b). The compiled engine must match the reference engine
// byte-for-byte, and — Proposition 4.1 — both the pipelined and the
// non-pipelined runs must reproduce the zero-delay outputs.
func TestPipelinedSporadicStraddlingFrames(t *testing.T) {
	const frames = 6
	// 100 ms is exactly the frame boundary between frames 0 and 1; 201 ms
	// and 350 ms fall inside later frames. Spacing stays ≥ T' = 100 ms so
	// the burst-1 sporadic constraint holds.
	events := map[string][]core.Time{"S": {rational.Milli(100), rational.Milli(201), rational.Milli(350)}}

	for _, tc := range []struct {
		name          string
		sporadicFirst bool
	}{
		{"right-closed (b-T', b]", true},
		{"left-closed [b-T', b)", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := pipelineSporadicNet(tc.sporadicFirst)
			tg, err := taskgraph.DeriveOpts(net, taskgraph.Options{DeadlineSlack: rational.Milli(200)})
			if err != nil {
				t.Fatal(err)
			}
			s, err := sched.PipelineSchedule(tg, 4)
			if err != nil {
				t.Fatal(err)
			}

			cfg := plan.Config{Frames: frames, Pipelined: true, SporadicEvents: events}
			p, err := plan.Compile(s)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.Run(cfg)
			if err != nil {
				t.Fatalf("compiled pipelined run: %v", err)
			}
			want, err := runReference(s, cfg)
			if err != nil {
				t.Fatalf("reference pipelined run: %v", err)
			}
			if diff := diffReports(got, want); diff != "" {
				t.Fatalf("compiled pipelined report diverges from reference: %s", diff)
			}

			// The same schedule run frame-at-a-time is the sequential
			// reference: pipelining may only change timing, never data.
			seq, err := runReference(s, plan.Config{Frames: frames, SporadicEvents: events})
			if err != nil {
				t.Fatalf("non-pipelined reference run: %v", err)
			}
			if !core.SamplesEqual(seq.Outputs, got.Outputs) {
				t.Errorf("pipelined outputs diverge from the non-pipelined run: %s",
					core.DiffSamples(seq.Outputs, got.Outputs))
			}

			ref, err := core.RunZeroDelay(net, tg.Hyperperiod.MulInt(frames), core.ZeroDelayOptions{
				SporadicEvents: events,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !core.SamplesEqual(ref.Outputs, got.Outputs) {
				t.Errorf("pipelined run diverges from zero-delay: %s",
					core.DiffSamples(ref.Outputs, got.Outputs))
			}
		})
	}
}

// diffReports names the first field in which two reports differ, or
// returns "". Intervals are compared in exact time: the two reports may
// count them on different timescales.
func diffReports(a, b *plan.Report) string {
	switch {
	case a.Schedule != b.Schedule || a.Frames != b.Frames:
		return fmt.Sprintf("schedule or frames differ: %d vs %d frames", a.Frames, b.Frames)
	case !reflect.DeepEqual(a.GanttEntries(), b.GanttEntries()):
		return fmt.Sprintf("Entries differ: %d vs %d", len(a.Entries), len(b.Entries))
	case !reflect.DeepEqual(a.Misses, b.Misses):
		return fmt.Sprintf("Misses differ: %v vs %v", a.Misses, b.Misses)
	case !reflect.DeepEqual(a.Skipped, b.Skipped):
		return fmt.Sprintf("Skipped differ: %v vs %v", a.Skipped, b.Skipped)
	case !reflect.DeepEqual(a.Outputs, b.Outputs):
		return "Outputs differ: " + core.DiffSamples(a.Outputs, b.Outputs)
	case !reflect.DeepEqual(a.Channels(), b.Channels()):
		return "Channels differ"
	case !reflect.DeepEqual(a.Trace, b.Trace):
		return "Trace differs"
	case !reflect.DeepEqual(a.Makespan, b.Makespan):
		return fmt.Sprintf("Makespan %v vs %v", a.Makespan, b.Makespan)
	case !reflect.DeepEqual(a.MaxLateness, b.MaxLateness):
		return fmt.Sprintf("MaxLateness %v vs %v", a.MaxLateness, b.MaxLateness)
	default:
		return ""
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

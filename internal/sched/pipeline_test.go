package sched

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rational"
	"repro/internal/taskgraph"
)

// pipelineChain builds an n-stage chain with period 100 ms, per-stage WCET
// 50 ms and end-to-end-friendly deadlines of 300 ms per process.
func pipelineChain(n int) *core.Network {
	net := core.NewNetwork("pipeline")
	var prev string
	for i := 0; i < n; i++ {
		name := string(rune('A' + i))
		net.AddPeriodic(name, ms(100), ms(300), ms(50), core.BehaviorFunc(func(ctx *core.JobContext) error {
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
	net.Output(prev, "OUT")
	return net
}

// TestPipelinedDerivationUnlocksThroughput: a 3-stage, 150 ms chain on a
// 100 ms period is infeasible under the paper's non-pipelined truncation
// but admits a valid pipelined schedule once the deadline slack is kept.
func TestPipelinedDerivationUnlocksThroughput(t *testing.T) {
	// Non-pipelined: deadlines truncated to H = 100 ms; the chain cannot
	// fit any window.
	flat, err := taskgraph.Derive(pipelineChain(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := flat.CheckSchedulable(3); err == nil {
		t.Fatal("truncated chain passed the necessary condition; it must not")
	}

	// Pipelined: keep the 300 ms deadlines (slack 200 ms past H).
	tg, err := taskgraph.DeriveOpts(pipelineChain(3), taskgraph.Options{
		DeadlineSlack: ms(200),
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := PipelineSchedule(tg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan().LessEq(ms(100)) {
		t.Fatalf("makespan %v does not exceed H; the test exercises nothing", s.Makespan())
	}
	if err := s.ValidatePipelined(); err != nil {
		t.Fatalf("pipelined validation failed: %v\n%s", err, s.Table())
	}
	// The list scheduler, which knows nothing about repetitions, packs
	// the chain onto one processor and fails the pipelined check.
	packed, err := ListSchedule(tg, 3, ALAPEDF)
	if err != nil {
		t.Fatal(err)
	}
	if err := packed.ValidatePipelined(); err == nil {
		t.Error("packed chain passed pipelined validation; the validator is vacuous")
	}
}

// TestPipelinedValidatorRejectsRelatedOverlap: a 2-stage chain where
// consumer jobs of one repetition overlap producer jobs of the next is
// rejected — the channel-sharing processes would violate the zero-delay
// access order (this is exactly why the paper couples pipelining with
// buffering in its future work).
func TestPipelinedValidatorRejectsRelatedOverlap(t *testing.T) {
	net := core.NewNetwork("two-stage")
	net.AddPeriodic("P", ms(100), ms(200), ms(60), nil)
	net.AddPeriodic("Q", ms(100), ms(200), ms(60), nil)
	net.Connect("P", "Q", "q", core.FIFO)
	net.Priority("P", "Q")
	tg, err := taskgraph.DeriveOpts(net, taskgraph.Options{DeadlineSlack: ms(100)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := PipelineSchedule(tg, 2)
	if err != nil {
		t.Fatal(err)
	}
	err = s.ValidatePipelined()
	if err == nil || !strings.Contains(err.Error(), "precedence violation") {
		t.Errorf("ValidatePipelined = %v, want related-overlap rejection", err)
	}
}

// TestPipelinedValidatorAcceptsNonOverlapping: schedules whose makespan
// fits in one frame pass trivially.
func TestPipelinedValidatorAcceptsNonOverlapping(t *testing.T) {
	tg, err := taskgraph.Derive(pipelineChain(2))
	if err != nil {
		t.Fatal(err)
	}
	// WCET 50+50 = 100 fits the frame exactly on one processor per stage.
	s, err := FindFeasible(tg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ValidatePipelined(); err != nil {
		t.Errorf("non-overlapping schedule rejected: %v", err)
	}
}

func TestPipelinedValidatorRejectsProcessorCollision(t *testing.T) {
	// Force a processor collision across repetitions: two independent
	// processes on ONE processor, total work 150 ms per 100 ms frame.
	net := core.NewNetwork("collide")
	net.AddPeriodic("X", ms(100), ms(300), ms(75), nil)
	net.AddPeriodic("Y", ms(100), ms(300), ms(75), nil)
	tg, err := taskgraph.DeriveOpts(net, taskgraph.Options{DeadlineSlack: ms(200)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ListSchedule(tg, 1, ALAPEDF)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("base validation failed: %v", err)
	}
	err = s.ValidatePipelined()
	if err == nil || !strings.Contains(err.Error(), "overlap on processor") {
		t.Errorf("ValidatePipelined = %v, want processor collision", err)
	}
}

// TestPipelinedValidatorCollisionLateRepetition: on a hand-built graph a
// start may precede the frame, and then a job collides with a repetition
// k as late as ⌈(makespan − earliest start)/H⌉ − 1. Job J runs at
// [−6, −5) or [−16, −15) and job I at [14, 15), both on one processor,
// with H = 10: J's repetition 2 or 3 lands on I. Repetition 2 is
// ⌈makespan/H⌉, which a loop bounded by ⌊makespan/H⌋ misses; repetition
// 3 lies beyond ⌈makespan/H⌉ itself.
func TestPipelinedValidatorCollisionLateRepetition(t *testing.T) {
	for _, c := range []struct {
		startJ int64
		rep    string
	}{{-6, "+2"}, {-16, "+3"}} {
		job := func(i int, proc string, a int64) *taskgraph.Job {
			return &taskgraph.Job{Index: i, Proc: proc, Pid: i, K: 1,
				Arrival: rational.FromInt(a), Deadline: rational.FromInt(a + 1), WCET: rational.One}
		}
		tg := &taskgraph.TaskGraph{
			Hyperperiod: rational.FromInt(10),
			Jobs:        []*taskgraph.Job{job(0, "J", c.startJ), job(1, "I", 14)},
			Succ:        [][]int{{}, {}},
			Pred:        [][]int{{}, {}},
		}
		s := &Schedule{TG: tg, M: 1, Assign: []Assignment{{0, c.startJ}, {0, 14}}}
		if err := s.Validate(); err != nil {
			t.Fatalf("J at %d: base validation failed: %v", c.startJ, err)
		}
		err := s.ValidatePipelined()
		if err == nil || !strings.Contains(err.Error(), "overlap on processor 0") || !strings.Contains(err.Error(), "repetition "+c.rep) {
			t.Errorf("J at %d: ValidatePipelined = %v, want a collision with repetition %s", c.startJ, err, c.rep)
		}
	}
}

// Differential cases for run inputs that lie off the plan's timescale:
// sporadic events between plan ticks, jittered and scaled execution times,
// frame overheads and pipelined frames. Plan.Run and Plan.RunConcurrent
// lower each run onto a refinement of the task graph's ticks; their
// reports must stay byte-identical to the rational reference engines.
package integration

import (
	"testing"

	"repro/internal/apps/fft"
	"repro/internal/apps/fms"
	"repro/internal/apps/signal"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// offGrid returns ms milliseconds plus the fraction num/den of a
// millisecond, a time between the ticks of the paper apps' timescales.
func offGrid(ms, num, den int64) core.Time {
	return rational.Milli(ms).Add(rational.New(num, 1000*den))
}

func TestPlanMatchesReferenceOffGrid(t *testing.T) {
	jitter, err := platform.JitterExec(7, rational.New(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	third, err := platform.ScaledExec(rational.New(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	offGridOverhead := platform.OverheadModel{
		FirstFrameBase: offGrid(41, 1, 3),
		FrameBase:      offGrid(20, 2, 7),
		PerJob:         rational.New(1, 7000),
	}
	cases := []struct {
		name   string
		build  func() *core.Network
		m      int
		frames int
		inputs map[string][]core.Value
		events map[string][]core.Time
		exec   platform.ExecModel
		over   platform.OverheadModel
	}{
		{
			name: "signal events between ticks", build: signal.New, m: 2, frames: 7,
			inputs: signal.Inputs(7),
			events: map[string][]core.Time{signal.CoefB: {offGrid(50, 1, 3), offGrid(350, 1, 3), offGrid(900, 1, 3)}},
		},
		{
			name: "signal jitter and off-grid events", build: signal.New, m: 2, frames: 7,
			inputs: signal.Inputs(7), exec: jitter,
			events: map[string][]core.Time{signal.CoefB: {offGrid(50, 1, 7), offGrid(900, 3, 11)}},
		},
		{
			name: "fft MPPA overhead, scaled exec", build: fft.New, m: 2, frames: 3,
			inputs: fft.Inputs([]fft.Frame{{1, 2, 3, 4}, {5, 6, 7, 8}, {2, 4, 6, 8}}),
			exec:   third, over: platform.MPPAFFTOverhead(),
		},
		{
			name: "fft off-grid overhead, jitter", build: fft.New, m: 1, frames: 3,
			inputs: fft.Inputs([]fft.Frame{{1, 2, 3, 4}, {5, 6, 7, 8}, {2, 4, 6, 8}}),
			exec:   jitter, over: offGridOverhead,
		},
		{
			name: "fms events between ticks, jitter", build: fms.New, m: 1, frames: 1,
			inputs: fms.Inputs(50), exec: jitter,
			events: map[string][]core.Time{
				fms.AnemoConfig:      {offGrid(40, 1, 7)},
				fms.MagnDeclinConfig: {offGrid(500, 1, 3)},
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
			cfg := plan.Config{
				Frames: c.frames, SporadicEvents: c.events,
				Inputs: c.inputs, Exec: c.exec, Overhead: c.over,
			}
			zopts := core.ZeroDelayOptions{SporadicEvents: c.events, Inputs: c.inputs}
			comparePlanAgainstReferences(t, net, s, tg.Hyperperiod.MulInt(int64(c.frames)), cfg, zopts)
		})
	}
}

// TestPipelinedOffGridMatchesReference runs the pipelined engine with
// events between ticks, jittered execution times and an off-grid frame
// overhead under both sporadic window rules.
func TestPipelinedOffGridMatchesReference(t *testing.T) {
	jitter, err := platform.JitterExec(3, rational.New(1, 5))
	if err != nil {
		t.Fatal(err)
	}
	const frames = 6
	events := map[string][]core.Time{"S": {offGrid(100, 1, 3), offGrid(201, 2, 9), offGrid(350, 1, 7)}}
	for _, sporadicFirst := range []bool{true, false} {
		net := pipelineSporadicNet(sporadicFirst)
		tg, err := taskgraph.DeriveOpts(net, taskgraph.Options{DeadlineSlack: rational.Milli(200)})
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.PipelineSchedule(tg, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := plan.Config{Frames: frames, Pipelined: true, SporadicEvents: events, Exec: jitter,
			Overhead: platform.OverheadModel{FrameBase: rational.New(1, 3000)}}
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
		if g, w := reportJSON(t, got), reportJSON(t, want); g != w {
			t.Fatalf("sporadic first %v: compiled pipelined report JSON diverges from reference: %s",
				sporadicFirst, diffReports(got, want))
		}
	}
}

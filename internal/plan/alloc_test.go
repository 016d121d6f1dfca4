package plan

import (
	"math/rand"
	"testing"

	"repro/internal/nettest"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// TestWarmReplayAllocsIndependentOfJobCount pins the steady-state memory
// model at scale: replaying a warm RunState allocates the same (small,
// constant) number of objects per frame whatever the frame's job count, so
// nothing on the replay path allocates per job.
func TestWarmReplayAllocsIndependentOfJobCount(t *testing.T) {
	allocsPerFrame := func(jobs int) (float64, int) {
		net := nettest.Scale(rand.New(rand.NewSource(int64(jobs))),
			nettest.ScaleOptions{TargetJobs: jobs, Processors: 4})
		tg, err := taskgraph.Derive(net)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.ListSchedule(tg, 4, sched.ALAPEDF)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		const frames = 2
		cfg := Config{Frames: frames, Inputs: nettest.Inputs(net, 2*frames)}
		rs := p.NewRunState()
		if _, err := rs.Run(cfg); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := rs.Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
		return allocs / frames, len(tg.Jobs)
	}
	small, nSmall := allocsPerFrame(200)
	large, nLarge := allocsPerFrame(1600)
	if nLarge < 4*nSmall {
		t.Fatalf("job counts %d and %d too close to tell per-job allocations apart", nSmall, nLarge)
	}
	if small != large {
		t.Errorf("warm replay allocates %v objects per frame at %d jobs but %v at %d jobs",
			small, nSmall, large, nLarge)
	}
}

package integration

import (
	"math/rand"
	"testing"

	"repro/internal/nettest"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// FuzzListScheduleMatchesReference feeds seeds into the random-network
// generator and demands that the event-driven list scheduler reproduce the
// rational-rescan reference exactly — same assignments, same start times,
// same tie-breaks, same feasibility verdict — for a seed-chosen heuristic
// and processor count. As a plain test it replays a seed corpus sized by
// FPPN_FUZZ_TRIALS; under `go test -fuzz` the engine pair is explored with
// arbitrary seeds.
func FuzzListScheduleMatchesReference(f *testing.F) {
	for seed := 0; seed < trialCount(f, 16); seed++ {
		f.Add(int64(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		net := nettest.Random(rng, nettest.Options{})
		tg, err := taskgraph.Derive(net)
		if err != nil {
			t.Skip() // generator produced a non-schedulable corner case
		}
		h := sched.Heuristics[rng.Intn(len(sched.Heuristics))]
		m := 1 + rng.Intn(len(tg.Jobs))
		got, gotErr := sched.ListSchedule(tg, m, h)
		want, wantErr := listScheduleReference(tg, m, h)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("m=%d h=%v: error mismatch: event-driven %v, reference %v", m, h, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("error text mismatch:\nevent-driven: %v\nreference:    %v", gotErr, wantErr)
			}
			return
		}
		if got.Heuristic != h || !matchesRef(got, want) {
			t.Fatalf("m=%d h=%v: event-driven schedule diverges from reference", m, h)
		}
		gotV, wantV := got.Validate(), validateReference(want)
		if (gotV == nil) != (wantV == nil) {
			t.Fatalf("m=%d h=%v: validation verdict mismatch: integer %v, rational %v", m, h, gotV, wantV)
		}
	})
}

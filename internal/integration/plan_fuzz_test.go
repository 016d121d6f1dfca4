package integration

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/nettest"
	"repro/internal/taskgraph"
)

// FuzzPlanMatchesZeroDelay feeds seeds into the random-network generator
// and demands that the compiled zero-delay engine (core.CompileNetwork +
// CompiledNet.RunZeroDelay) reproduce the string-keyed reference executor
// exactly — same job sequence, outputs, channel states and errors. As a
// plain test it replays a seed corpus sized by FPPN_FUZZ_TRIALS; under `go
// test -fuzz` the engine pair is explored with arbitrary seeds.
func FuzzPlanMatchesZeroDelay(f *testing.F) {
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
		frames := 1 + rng.Intn(3)
		horizon := tg.Hyperperiod.MulInt(int64(frames))
		opts := core.ZeroDelayOptions{
			SporadicEvents: nettest.RandomEvents(rng, net, horizon),
			Inputs:         nettest.Inputs(net, 100),
			Seed:           seed%5 - 1,
			RecordTrace:    seed%2 == 0,
		}
		got, gotErr := core.RunZeroDelay(net, horizon, opts)
		want, wantErr := runZeroDelayReference(net, horizon, opts)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("error mismatch: compiled %v, reference %v", gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("error text mismatch:\ncompiled:  %v\nreference: %v", gotErr, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("compiled zero-delay diverges from reference: %s",
				core.DiffSamples(want.Outputs, got.Outputs))
		}
	})
}

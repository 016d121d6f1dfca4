package nettest

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/rational"
)

func TestRandomNetworksValidate(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		net := Random(rng, Options{})
		if err := net.ValidateSchedulable(); err != nil {
			t.Fatalf("trial %d: generated network invalid: %v", trial, err)
		}
		if len(net.ExternalOutputs()) == 0 {
			t.Fatalf("trial %d: no observable outputs", trial)
		}
	}
}

func TestRandomIsDeterministicPerSeed(t *testing.T) {
	t.Parallel()
	a := Random(rand.New(rand.NewSource(7)), Options{})
	b := Random(rand.New(rand.NewSource(7)), Options{})
	if a.Name != b.Name || len(a.Processes()) != len(b.Processes()) ||
		len(a.Channels()) != len(b.Channels()) {
		t.Error("same seed produced different networks")
	}
}

func TestRandomEventsRespectConstraints(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	horizon := rational.FromInt(4)
	for trial := 0; trial < 50; trial++ {
		net := Random(rng, Options{MaxSporadic: 3})
		events := RandomEvents(rng, net, horizon)
		for proc, times := range events {
			p := net.Process(proc)
			if err := p.Gen.CheckSporadic(times); err != nil {
				t.Fatalf("trial %d: %s: %v", trial, proc, err)
			}
			for _, tau := range times {
				if !tau.Less(horizon) {
					t.Fatalf("trial %d: event beyond horizon", trial)
				}
			}
		}
	}
}

// TestRandomEventsBounded runs RandomEvents on the timing of the
// FuzzJobOrderNeverPanics input 63f9316e5687a7ea: a sporadic process with
// a 16843009 s period, on which the unbounded generator appended about
// 2·10^10 events. Its 3.5·10^17 s horizon does not fit the millisecond
// timescale, so the process is skipped; a 10^15 s horizon that fits walks
// exactly maxBursts single-event bursts.
func TestRandomEventsBounded(t *testing.T) {
	t.Parallel()
	timing := []byte("1000000000\x00\x00\x000\x00\x00\x00\x0000000000\x00\x00\x00\x00\x00\x00\x00\x00" +
		"0000000000000000000000000\x01\x00\x00\x00\x00\x18\x00\x0000000000\x00\x00\x00\x00\x00\x00\x00\x00" +
		"000000000000000")
	net := TimingNet(timing)
	p0 := net.Process("p0")
	if p0 == nil || !p0.IsSporadic() || !p0.Period().Equal(rational.FromInt(16843009)) || p0.Burst() != 1 {
		t.Fatalf("timing decodes to %+v, want a sporadic p0 with a 16843009 s period", p0)
	}
	for _, tc := range []struct {
		horizon rational.Rat
		want    int
	}{
		{rational.New(2821266740684990247, 8), 0},
		{rational.FromInt(1_000_000_000_000_000), maxBursts},
	} {
		events := RandomEvents(rand.New(rand.NewSource(27)), net, tc.horizon)
		if got := len(events["p0"]); got != tc.want {
			t.Errorf("horizon %vs: %d events, want %d", tc.horizon, got, tc.want)
		}
		if err := p0.Gen.CheckSporadic(events["p0"]); err != nil {
			t.Errorf("horizon %vs: %v", tc.horizon, err)
		}
		for _, tau := range events["p0"] {
			if !tau.Less(tc.horizon) {
				t.Fatalf("horizon %vs: event %v beyond it", tc.horizon, tau)
			}
		}
	}
}

func TestScaleHitsJobTarget(t *testing.T) {
	t.Parallel()
	for _, target := range []int{1000, 10000} {
		rng := rand.New(rand.NewSource(42))
		net := Scale(rng, ScaleOptions{TargetJobs: target})
		if err := net.ValidateSchedulable(); err != nil {
			t.Fatalf("target %d: generated network invalid: %v", target, err)
		}
		// Jobs per hyperperiod, summed directly from the harmonic periods:
		// the generator overshoots by at most one process's job count.
		jobs := int64(0)
		hyper := harmonicPeriods[len(harmonicPeriods)-1]
		for _, p := range net.Processes() {
			jobs += hyper * p.Period().Den() / (p.Period().Num() * 1000)
		}
		if jobs < int64(target) || jobs > int64(target)+hyper/harmonicPeriods[0] {
			t.Fatalf("target %d: %d jobs/hyperperiod", target, jobs)
		}
	}
}

func TestScaleIsDeterministicPerSeed(t *testing.T) {
	t.Parallel()
	a := Scale(rand.New(rand.NewSource(9)), ScaleOptions{TargetJobs: 2000})
	b := Scale(rand.New(rand.NewSource(9)), ScaleOptions{TargetJobs: 2000})
	if a.Name != b.Name || len(a.Processes()) != len(b.Processes()) ||
		len(a.Channels()) != len(b.Channels()) {
		t.Error("same seed produced different networks")
	}
}

func TestMixerBehaviourRuns(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	net := Random(rng, Options{})
	res, err := core.RunZeroDelay(net, rational.FromInt(2), core.ZeroDelayOptions{
		Inputs: Inputs(net, 40),
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, samples := range res.Outputs {
		total += len(samples)
	}
	if total == 0 {
		t.Error("no output samples produced")
	}
}

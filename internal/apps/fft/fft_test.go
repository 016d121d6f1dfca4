package fft

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

func approxEqual(a, b complex128) bool {
	return math.Abs(real(a)-real(b)) < 1e-9 && math.Abs(imag(a)-imag(b)) < 1e-9
}

func TestNetworkValidates(t *testing.T) {
	t.Parallel()
	n := New()
	if err := n.ValidateSchedulable(); err != nil {
		t.Fatal(err)
	}
	if got := len(n.Processes()); got != 14 {
		t.Errorf("%d processes, want 14 (Fig. 5)", got)
	}
	if got := len(n.Channels()); got != 24 {
		t.Errorf("%d channels, want 24", got)
	}
}

func TestFFTComputesDFT(t *testing.T) {
	t.Parallel()
	frames := []Frame{
		{1, 0, 0, 0},
		{1, 1, 1, 1},
		{0, 1, 0, -1},
		{complex(1, 2), complex(-3, 0.5), complex(0, -1), complex(2.5, 2.5)},
	}
	res, err := core.RunZeroDelay(New(), Period.MulInt(int64(len(frames))), core.ZeroDelayOptions{
		Inputs: Inputs(frames),
		Seed:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outputs[ExtOut]
	if len(out) != len(frames) {
		t.Fatalf("%d output frames, want %d", len(out), len(frames))
	}
	for fi, in := range frames {
		want := DFT(in)
		got := out[fi].Value.(Frame)
		for k := 0; k < N; k++ {
			if !approxEqual(got[k], want[k]) {
				t.Errorf("frame %d bin %d: got %v, want %v", fi, k, got[k], want[k])
			}
		}
	}
}

func TestFFTRandomFramesProperty(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	var frames []Frame
	for i := 0; i < 16; i++ {
		var f Frame
		for j := range f {
			f[j] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		frames = append(frames, f)
	}
	res, err := core.RunZeroDelay(New(), Period.MulInt(int64(len(frames))), core.ZeroDelayOptions{
		Inputs: Inputs(frames),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outputs[ExtOut]
	for fi, in := range frames {
		want := DFT(in)
		got := out[fi].Value.(Frame)
		// Parseval: energy conservation, and per-bin equality.
		var eIn, eOut float64
		for k := 0; k < N; k++ {
			if !approxEqual(got[k], want[k]) {
				t.Fatalf("frame %d bin %d mismatch", fi, k)
			}
			eIn += real(in[k])*real(in[k]) + imag(in[k])*imag(in[k])
			eOut += real(got[k])*real(got[k]) + imag(got[k])*imag(got[k])
		}
		if math.Abs(eOut-float64(N)*eIn) > 1e-6 {
			t.Errorf("frame %d violates Parseval: %v vs %v", fi, eOut, float64(N)*eIn)
		}
	}
}

// TestFig5TaskGraphOneToOne: the paper states the task graph maps
// one-to-one to the process-network graph: 14 jobs, one per process, and
// one precedence edge per channel pair (24).
func TestFig5TaskGraphOneToOne(t *testing.T) {
	t.Parallel()
	tg, err := taskgraph.Derive(New())
	if err != nil {
		t.Fatal(err)
	}
	if !tg.Hyperperiod.Equal(Period) {
		t.Errorf("H = %v, want %v", tg.Hyperperiod, Period)
	}
	if len(tg.Jobs) != 14 {
		t.Errorf("%d jobs, want 14", len(tg.Jobs))
	}
	if got := tg.EdgeCount(); got != 24 {
		t.Errorf("%d edges, want 24 (one per channel)", got)
	}
	for _, j := range tg.Jobs {
		if j.K != 1 || j.Server {
			t.Errorf("unexpected job %v", j)
		}
	}
}

// TestFig6LoadNumbers reproduces the paper's load figures: 0.93 for the
// plain graph and ≈1.14 once the 41 ms frame-arrival overhead is modelled
// as an extra job (the paper reports ≈1.2 with C ≈ 14 ms).
func TestFig6LoadNumbers(t *testing.T) {
	t.Parallel()
	tg, err := taskgraph.Derive(New())
	if err != nil {
		t.Fatal(err)
	}
	load := tg.Load()
	if !load.Equal(rational.New(931, 1000)) {
		t.Errorf("load = %v (%.4f), want 0.931", load, load.Float64())
	}
	// With the overhead job the precedence-aware load rises to ≈1.2
	// (the paper's reported value): the binding window is the 12
	// butterfly jobs squeezed between the overhead+generator prefix and
	// the consumer suffix.
	tgo, err := taskgraph.Derive(NewWithOverheadJob())
	if err != nil {
		t.Fatal(err)
	}
	loadO := tgo.Load()
	if loadO.Float64() < 1.15 || loadO.Float64() > 1.25 {
		t.Errorf("load with overhead job = %.4f, want ≈1.2 as in the paper", loadO.Float64())
	}
	if err := tgo.CheckSchedulable(1); err == nil {
		t.Error("overhead-inclusive graph passed the uniprocessor necessary test")
	}
}

// TestFig6SingleVsDualProcessor reproduces the experiment's shape: with the
// MPPA runtime overhead, a single-processor mapping misses deadlines on
// every frame while a two-processor mapping meets all of them.
func TestFig6SingleVsDualProcessor(t *testing.T) {
	t.Parallel()
	tg, err := taskgraph.Derive(New())
	if err != nil {
		t.Fatal(err)
	}
	frames := 5
	inputs := Inputs(make([]Frame, frames))

	single, err := sched.ListSchedule(tg, 1, sched.ALAPEDF)
	if err != nil {
		t.Fatal(err)
	}
	singlePlan, err := plan.Compile(single)
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := singlePlan.Run(plan.Config{
		Frames:   frames,
		Overhead: platform.MPPAFFTOverhead(),
		Inputs:   inputs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep1.Misses) == 0 {
		t.Error("single-processor mapping met all deadlines despite the runtime overhead")
	}

	dual, err := sched.FindFeasible(tg, 2)
	if err != nil {
		t.Fatal(err)
	}
	dualPlan, err := plan.Compile(dual)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := dualPlan.Run(plan.Config{
		Frames:   frames,
		Overhead: platform.MPPAFFTOverhead(),
		Inputs:   inputs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Misses) != 0 {
		t.Errorf("two-processor mapping missed deadlines: %v", rep2.Misses)
	}
	// Without overhead even one processor suffices (load 0.93 < 1).
	rep0, err := singlePlan.Run(plan.Config{Frames: frames, Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep0.Misses) != 0 {
		t.Errorf("single processor without overhead missed deadlines: %v", rep0.Misses)
	}
	// Functional determinism across mappings: both produce the DFT.
	if !core.SamplesEqual(rep1.Outputs, rep2.Outputs) {
		t.Error("different mappings produced different FFT outputs")
	}
}

func TestGeneratorRejectsBadInput(t *testing.T) {
	t.Parallel()
	res, err := core.RunZeroDelay(New(), Period, core.ZeroDelayOptions{
		Inputs: map[string][]core.Value{ExtIn: {"not a frame"}},
	})
	if err == nil {
		t.Errorf("bad input type accepted: %v", res.Outputs)
	}
}

func TestMissingInputActsAsZeroFrame(t *testing.T) {
	t.Parallel()
	res, err := core.RunZeroDelay(New(), Period, core.ZeroDelayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outputs[ExtOut]
	if len(out) != 1 {
		t.Fatalf("%d outputs, want 1", len(out))
	}
	got := out[0].Value.(Frame)
	for k := 0; k < N; k++ {
		if got[k] != 0 {
			t.Errorf("bin %d = %v, want 0", k, got[k])
		}
	}
}

func TestNewSizeGeneralizedFFT(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(9))
	for _, size := range []int{2, 8, 16} {
		net := NewSize(size, DefaultWCET)
		if err := net.ValidateSchedulable(); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		bits := 0
		for 1<<bits < size {
			bits++
		}
		wantProcs := 2 + size*(bits+1)
		if got := len(net.Processes()); got != wantProcs {
			t.Errorf("size %d: %d processes, want %d", size, got, wantProcs)
		}
		// Random blocks against the reference DFT.
		blocks := make([]Block, 3)
		for bi := range blocks {
			b := make(Block, size)
			for j := range b {
				b[j] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			blocks[bi] = b
		}
		res, err := core.RunZeroDelay(net, Period.MulInt(int64(len(blocks))), core.ZeroDelayOptions{
			Inputs: BlockInputs(blocks),
		})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		out := res.Outputs[ExtOut]
		if len(out) != len(blocks) {
			t.Fatalf("size %d: %d outputs", size, len(out))
		}
		for bi, in := range blocks {
			want := DFTBlock(in)
			var got Block
			if size == N {
				f := out[bi].Value.(Frame)
				got = f[:]
			} else {
				got = out[bi].Value.(Block)
			}
			for k := 0; k < size; k++ {
				if !approxEqual(got[k], want[k]) {
					t.Fatalf("size %d block %d bin %d: %v vs %v", size, bi, k, got[k], want[k])
				}
			}
		}
	}
}

func TestNewSizeRejectsBadSizes(t *testing.T) {
	t.Parallel()
	for _, bad := range []int{0, 1, 3, 6, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("size %d accepted", bad)
				}
			}()
			NewSize(bad, DefaultWCET)
		}()
	}
}

func TestNewSizeSchedulesAndRuns(t *testing.T) {
	t.Parallel()
	// An 8-point FFT end to end through the whole flow.
	net := NewSize(8, rational.Milli(5))
	tg, err := taskgraph.Derive(net)
	if err != nil {
		t.Fatal(err)
	}
	if len(tg.Jobs) != len(net.Processes()) {
		t.Errorf("%d jobs for %d processes; 1:1 mapping expected", len(tg.Jobs), len(net.Processes()))
	}
	s, err := sched.FindFeasible(tg, 2)
	if err != nil {
		t.Fatal(err)
	}
	blocks := []Block{make(Block, 8)}
	blocks[0][3] = complex(1, 0)
	p, err := plan.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(plan.Config{Frames: 1, Inputs: BlockInputs(blocks)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Misses) != 0 {
		t.Errorf("misses: %v", rep.Misses)
	}
	got := rep.Outputs[ExtOut][0].Value.(Block)
	want := DFTBlock(blocks[0])
	for k := range want {
		if !approxEqual(got[k], want[k]) {
			t.Fatalf("bin %d: %v vs %v", k, got[k], want[k])
		}
	}
}

func TestFrameOnBigNetworkRejected(t *testing.T) {
	t.Parallel()
	net := NewSize(8, DefaultWCET)
	_, err := core.RunZeroDelay(net, Period, core.ZeroDelayOptions{
		Inputs: map[string][]core.Value{ExtIn: {Frame{1, 2, 3, 4}}},
	})
	if err == nil {
		t.Error("4-point Frame accepted by an 8-point network")
	}
}

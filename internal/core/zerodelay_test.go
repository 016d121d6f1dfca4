package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rational"
)

// fig1Behaviors attaches deterministic functional bodies to the Fig. 1
// network so the determinism proposition can be checked on data values.
func fig1Behaviors(n *Network) {
	n.Process("InputA").Behavior = BehaviorFunc(func(ctx *JobContext) error {
		v, ok := ctx.ReadInput("InputChannel")
		if !ok {
			v = 0
		}
		x := v.(int)
		ctx.Write("inA", x)
		ctx.Write("inB", x+1000)
		return nil
	})
	n.Process("FilterA").Behavior = &filterA{}
	n.Process("NormA").Behavior = BehaviorFunc(func(ctx *JobContext) error {
		sum := 0
		for {
			v, ok := ctx.Read("filtered")
			if !ok {
				break
			}
			sum += v.(int)
		}
		ctx.Write("feedback", sum%7)
		ctx.Write("normed", sum)
		return nil
	})
	n.Process("FilterB").Behavior = BehaviorFunc(func(ctx *JobContext) error {
		coef := 1
		if v, ok := ctx.Read("coefs"); ok {
			coef = v.(int)
		}
		if v, ok := ctx.Read("inB"); ok {
			ctx.Write("outB", v.(int)*coef)
		}
		return nil
	})
	n.Process("OutputA").Behavior = BehaviorFunc(func(ctx *JobContext) error {
		if v, ok := ctx.Read("normed"); ok {
			ctx.WriteOutput("OutputChannel1", v)
		}
		return nil
	})
	n.Process("OutputB").Behavior = BehaviorFunc(func(ctx *JobContext) error {
		if v, ok := ctx.Read("outB"); ok {
			ctx.WriteOutput("OutputChannel2", v)
		}
		return nil
	})
	n.Process("CoefB").Behavior = &coefGen{}
}

// filterA is a stateful filter: doubles its input and adds the feedback
// value, remembering the last input when the FIFO is empty (it runs at
// twice the rate of its producer).
type filterA struct {
	last int
}

func (f *filterA) Init() { f.last = 0 }
func (f *filterA) Step(ctx *JobContext) error {
	if v, ok := ctx.Read("inA"); ok {
		f.last = v.(int)
	}
	fb := 0
	if v, ok := ctx.Read("feedback"); ok {
		fb = v.(int)
	}
	ctx.Write("filtered", f.last*2+fb)
	return nil
}
func (f *filterA) Clone() Behavior { return &filterA{} }

// coefGen produces a new filter coefficient on every sporadic invocation.
type coefGen struct {
	k int
}

func (c *coefGen) Init() { c.k = 0 }
func (c *coefGen) Step(ctx *JobContext) error {
	c.k++
	ctx.Write("coefs", 2+c.k)
	return nil
}
func (c *coefGen) Clone() Behavior { return &coefGen{} }

func fig1Inputs(count int) map[string][]Value {
	in := make([]Value, count)
	for i := range in {
		in[i] = i + 1
	}
	return map[string][]Value{"InputChannel": in}
}

func TestRunZeroDelayBasic(t *testing.T) {
	n := buildFig1(t)
	fig1Behaviors(n)
	res, err := RunZeroDelay(n, ms(400), ZeroDelayOptions{
		SporadicEvents: map[string][]Time{"CoefB": {ms(50)}},
		Inputs:         fig1Inputs(4),
		Seed:           -1,
		RecordTrace:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two frames of 200ms: InputA, FilterB, NormA, OutputA run twice;
	// FilterA, OutputB run four times; CoefB runs once.
	wantCounts := map[string]int{
		"InputA": 2, "FilterA": 4, "FilterB": 2, "NormA": 2,
		"OutputA": 2, "OutputB": 4, "CoefB": 1,
	}
	got := map[string]int{}
	for _, j := range res.Jobs {
		got[j.Proc]++
	}
	for p, want := range wantCounts {
		if got[p] != want {
			t.Errorf("process %s executed %d jobs, want %d", p, got[p], want)
		}
	}
	if len(res.Outputs["OutputChannel1"]) != 2 {
		t.Errorf("OutputChannel1 has %d samples, want 2", len(res.Outputs["OutputChannel1"]))
	}
	if res.Trace[0].Kind != ActWait || !res.Trace[0].Time.Equal(rational.Zero) {
		t.Errorf("trace does not start with w(0)")
	}
}

func TestZeroDelayJobOrderRespectsFP(t *testing.T) {
	n := buildFig1(t)
	fig1Behaviors(n)
	res, err := RunZeroDelay(n, ms(200), ZeroDelayOptions{Seed: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Within each instant, InputA must precede FilterA and FilterB.
	pos := map[string]int{}
	for i, j := range res.Jobs {
		if j.Time.IsZero() {
			pos[j.Proc] = i
		}
	}
	if !(pos["InputA"] < pos["FilterA"] && pos["InputA"] < pos["FilterB"] &&
		pos["FilterA"] < pos["NormA"] && pos["NormA"] < pos["OutputA"]) {
		t.Errorf("zero-delay order violates FP at t=0: %v", res.Jobs)
	}
}

// TestProposition21Determinism is the paper's Proposition 2.1: the
// sequences of values written at all external and internal channels are a
// function of the event time stamps and the input data — independent of
// which FP-respecting execution order the runtime happens to choose.
func TestProposition21Determinism(t *testing.T) {
	sporadics := map[string][]Time{"CoefB": {ms(50), ms(350), ms(900)}}
	run := func(seed int64) *ZeroDelayResult {
		n := buildFig1(t)
		fig1Behaviors(n)
		res, err := RunZeroDelay(n, ms(1400), ZeroDelayOptions{
			SporadicEvents: sporadics,
			Inputs:         fig1Inputs(7),
			Seed:           seed,
			RecordTrace:    true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(-1)
	channels := []string{"inA", "inB", "filtered", "feedback", "normed", "outB", "coefs",
		"OutputChannel1", "OutputChannel2"}
	for seed := int64(0); seed < 25; seed++ {
		got := run(seed)
		if !SamplesEqual(ref.Outputs, got.Outputs) {
			t.Fatalf("seed %d: outputs differ: %s", seed, DiffSamples(ref.Outputs, got.Outputs))
		}
		for _, ch := range channels {
			a := ref.Trace.WritesTo(ch)
			b := got.Trace.WritesTo(ch)
			if len(a) != len(b) {
				t.Fatalf("seed %d: channel %s write counts differ: %d vs %d", seed, ch, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seed %d: channel %s write %d differs: %v vs %v", seed, ch, i, a[i], b[i])
				}
			}
		}
	}
}

// Determinism must also hold w.r.t. sporadic event timing: two runs with
// the same sporadic time stamps agree, and time stamps are honoured (the
// outputs depend on them).
func TestDeterminismSporadicTiming(t *testing.T) {
	run := func(events []Time) *ZeroDelayResult {
		n := buildFig1(t)
		fig1Behaviors(n)
		res, err := RunZeroDelay(n, ms(600), ZeroDelayOptions{
			SporadicEvents: map[string][]Time{"CoefB": events},
			Inputs:         fig1Inputs(3),
			Seed:           -1,
			RecordTrace:    true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run([]Time{ms(10)})
	b := run([]Time{ms(10)})
	if !SamplesEqual(a.Outputs, b.Outputs) {
		t.Error("identical runs disagree")
	}
	c := run([]Time{ms(210)}) // coefficient arrives one period later
	if SamplesEqual(a.Outputs, c.Outputs) {
		t.Error("outputs ignore sporadic event timing; the network is degenerate for this test")
	}
}

func TestRunZeroDelayErrors(t *testing.T) {
	n := buildFig1(t)
	fig1Behaviors(n)
	if _, err := RunZeroDelay(n, rational.Zero, ZeroDelayOptions{}); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := RunZeroDelay(n, ms(200), ZeroDelayOptions{
		SporadicEvents: map[string][]Time{"CoefB": {ms(0), ms(1), ms(2)}},
	}); err == nil {
		t.Error("sporadic burst violation accepted")
	}
	if _, err := RunZeroDelay(n, ms(200), ZeroDelayOptions{
		SporadicEvents: map[string][]Time{"CoefB": {ms(500)}},
	}); err == nil {
		t.Error("sporadic event beyond horizon accepted")
	}
	if _, err := RunZeroDelay(n, ms(200), ZeroDelayOptions{
		SporadicEvents: map[string][]Time{"InputA": {ms(0)}},
	}); err == nil {
		t.Error("sporadic events for periodic process accepted")
	}
	if _, err := RunZeroDelay(n, ms(200), ZeroDelayOptions{
		SporadicEvents: map[string][]Time{"ghost": {ms(0)}},
	}); err == nil {
		t.Error("sporadic events for unknown process accepted")
	}
}

func TestHyperperiod(t *testing.T) {
	n := buildFig1(t)
	// Raw periods: lcm(200, 100, 700) = 1400 ms.
	h, err := Hyperperiod(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Equal(ms(1400)) {
		t.Errorf("raw hyperperiod = %v, want 1400ms", h)
	}
	// With CoefB's period substituted by its user's (200 ms), H = 200 ms
	// as in Fig. 3.
	h, err = Hyperperiod(n, map[string]Time{"CoefB": ms(200)})
	if err != nil {
		t.Fatal(err)
	}
	if !h.Equal(ms(200)) {
		t.Errorf("substituted hyperperiod = %v, want 200ms", h)
	}
}

func TestHyperperiodErrors(t *testing.T) {
	empty := NewNetwork("empty")
	if _, err := Hyperperiod(empty, nil); err == nil {
		t.Error("hyperperiod of empty network accepted")
	}
	n := buildFig1(t)
	if _, err := Hyperperiod(n, map[string]Time{"CoefB": rational.Zero}); err == nil {
		t.Error("non-positive substituted period accepted")
	}
	wide := NewNetwork("wide")
	for i, p := range []int64{1<<31 - 1, 1 << 31, 1<<31 + 1} {
		wide.AddPeriodic(fmt.Sprintf("p%d", i), rational.FromInt(p), rational.FromInt(p), ms(1), nil)
	}
	if _, err := Hyperperiod(wide, nil); err == nil || !strings.Contains(err.Error(), "overflows int64") {
		t.Errorf("hyperperiod past int64: error %v, want an overflow error", err)
	}
}

func TestTraceFormatting(t *testing.T) {
	tr := Trace{
		{Kind: ActWait, Time: ms(100)},
		{Kind: ActJobStart, Proc: "p", K: 2},
		{Kind: ActRead, Proc: "p", K: 2, Channel: "c", Value: 5, OK: true},
		{Kind: ActRead, Proc: "p", K: 2, Channel: "c", OK: false},
		{Kind: ActWrite, Proc: "p", K: 2, Channel: "d", Value: 6, OK: true},
		{Kind: ActReadExt, Proc: "p", K: 2, Channel: "I", Value: 7, OK: true},
		{Kind: ActWriteExt, Proc: "p", K: 2, Channel: "O", Value: 8, OK: true},
		{Kind: ActJobEnd, Proc: "p", K: 2},
	}
	wants := []string{"w(1/10)", "p[2]{", "p[2] 5?c", "p[2] ⊥?c", "p[2] 6!d",
		"p[2] 7?[2]I", "p[2] O![2]8", "}p[2]"}
	for i, want := range wants {
		if got := tr[i].String(); got != want {
			t.Errorf("action %d String = %q, want %q", i, got, want)
		}
	}
	if tr.Compact() == "" || tr.String() == "" {
		t.Error("empty trace rendering")
	}
	if !tr.Equal(tr) {
		t.Error("trace not equal to itself")
	}
	if tr.Equal(tr[1:]) {
		t.Error("trace equal to shorter trace")
	}
	if len(tr.DataActions()) != 5 {
		t.Errorf("DataActions = %d actions, want 5", len(tr.DataActions()))
	}
	if w := tr.WritesTo("d"); len(w) != 1 || w[0].(int) != 6 {
		t.Errorf("WritesTo(d) = %v", w)
	}
}

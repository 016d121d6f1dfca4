// Package nettest generates pseudo-random, well-formed, schedulable
// fixed-priority process networks for property-based testing. The generated
// networks exercise every model feature — FIFO and blackboard channels,
// multi-rate periodic processes, bursty sporadic processes attached to
// periodic users with both boundary-rule priorities, stateful behaviours,
// external inputs and outputs — while staying lightly loaded so that a
// feasible multiprocessor schedule always exists and cross-executor
// determinism checks (zero-delay vs runtime vs generated timed automata)
// can run end to end.
package nettest

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/rational"
)

// Options bounds the generated network.
type Options struct {
	// MinPeriodic and MaxPeriodic bound the periodic process count
	// (defaults 3 and 7).
	MinPeriodic int
	MaxPeriodic int
	// MaxSporadic bounds the sporadic process count (default 2).
	MaxSporadic int
	// MaxWCETMs bounds per-process WCET in milliseconds (default 8).
	MaxWCETMs int64
}

func (o Options) withDefaults() Options {
	if o.MinPeriodic == 0 {
		o.MinPeriodic = 3
	}
	if o.MaxPeriodic == 0 {
		o.MaxPeriodic = 7
	}
	if o.MaxSporadic == 0 {
		o.MaxSporadic = 2
	}
	if o.MaxWCETMs == 0 {
		o.MaxWCETMs = 8
	}
	return o
}

var harmonicPeriods = []int64{100, 200, 400, 800}

// Random generates a network from the given source of randomness. Networks
// from the same seed are identical.
func Random(rng *rand.Rand, opts Options) *core.Network {
	opts = opts.withDefaults()
	n := core.NewNetwork(fmt.Sprintf("random-%d", rng.Int63()))

	nPeriodic := opts.MinPeriodic + rng.Intn(opts.MaxPeriodic-opts.MinPeriodic+1)
	names := make([]string, nPeriodic)
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
		period := harmonicPeriods[rng.Intn(len(harmonicPeriods))]
		wcet := 1 + rng.Int63n(opts.MaxWCETMs)
		n.AddPeriodic(names[i], rational.Milli(period), rational.Milli(period),
			rational.Milli(wcet), &mixer{name: names[i]})
	}

	// Random forward DAG of channels among the periodic processes, with
	// writer-over-reader functional priority.
	for i := 0; i < nPeriodic; i++ {
		for j := i + 1; j < nPeriodic; j++ {
			if rng.Intn(3) != 0 {
				continue
			}
			kind := core.FIFO
			if rng.Intn(2) == 0 {
				kind = core.Blackboard
			}
			ch := fmt.Sprintf("c_%s_%s", names[i], names[j])
			if kind == core.Blackboard && rng.Intn(2) == 0 {
				n.ConnectInit(names[i], names[j], ch, 0)
			} else {
				n.Connect(names[i], names[j], ch, kind)
			}
			n.Priority(names[i], names[j])
		}
	}

	// Sporadic configurators attached to random periodic users.
	nSporadic := rng.Intn(opts.MaxSporadic + 1)
	for k := 0; k < nSporadic; k++ {
		user := names[rng.Intn(nPeriodic)]
		up := n.Process(user).Period()
		mult := int64(1 + rng.Intn(3))
		period := up.MulInt(mult)
		deadline := period.Add(up) // d > T_u keeps the server deadline positive
		burst := 1 + rng.Intn(2)
		name := fmt.Sprintf("s%d", k)
		n.AddSporadic(name, burst, period, deadline,
			rational.Milli(1+rng.Int63n(3)), &mixer{name: name})
		n.ConnectInit(name, user, fmt.Sprintf("cfg_%s", name), 0)
		if rng.Intn(2) == 0 {
			n.Priority(name, user) // right-closed boundary window
		} else {
			n.Priority(user, name) // left-closed boundary window
		}
	}

	// External I/O: an input on the first process, an output on every
	// sink (and always on the last process so something is observable).
	n.Input(names[0], "IN")
	attached := false
	for i, p := range names {
		if len(n.Process(p).Outputs()) == 0 || i == nPeriodic-1 {
			n.Output(p, "OUT_"+p)
			attached = true
		}
	}
	if !attached {
		n.Output(names[nPeriodic-1], "OUT")
	}
	return n
}

// ScaleOptions bounds a generated scale-tier network.
type ScaleOptions struct {
	// TargetJobs is the approximate jobs-per-hyperperiod the generated
	// network reaches: the generator adds processes until the running job
	// total meets it (default 10000). The derived graph lands within one
	// process's job count (at most 8) of the target.
	TargetJobs int
	// Processors is the processor count the network is sized for: WCETs
	// are chosen so total utilization is 50% of it (default 8).
	Processors int
	// Depth is the layer count of the channel DAG (default 4). Critical
	// paths stay Depth jobs long, so feasibility never hinges on chains.
	Depth int
}

func (o ScaleOptions) withDefaults() ScaleOptions {
	if o.TargetJobs == 0 {
		o.TargetJobs = 10000
	}
	if o.Processors == 0 {
		o.Processors = 8
	}
	if o.Depth == 0 {
		o.Depth = 4
	}
	return o
}

// Scale generates the scale benchmark tier: a layered multi-rate periodic
// network with approximately opts.TargetJobs jobs per hyperperiod. Unlike
// Random it trades feature breadth for size — no sporadic servers, one
// input channel per non-source process — so end-to-end pipeline
// benchmarks (derive → schedule → compile → run) measure per-job compile
// and replay cost, not event-handling corner cases. Rate-crossing links
// are blackboards (latest-value semantics need no rate matching);
// rate-matched links are FIFOs. Utilization is spread uniformly so the
// network stays list-schedulable on opts.Processors with 50% headroom.
// Networks from the same seed are identical.
func Scale(rng *rand.Rand, opts ScaleOptions) *core.Network {
	opts = opts.withDefaults()
	n := core.NewNetwork(fmt.Sprintf("scale-%d", opts.TargetJobs))

	hyper := harmonicPeriods[len(harmonicPeriods)-1]
	type spec struct {
		name     string
		periodMs int64
	}
	layers := make([][]spec, opts.Depth)
	jobs, i := 0, 0
	for jobs < opts.TargetJobs {
		periodMs := harmonicPeriods[rng.Intn(len(harmonicPeriods))]
		layer := i % opts.Depth
		layers[layer] = append(layers[layer], spec{fmt.Sprintf("n%d_%d", layer, i), periodMs})
		jobs += int(hyper / periodMs)
		i++
	}

	// Uniform utilization: every process gets u = Processors/(2·count), so
	// the total is exactly half the platform capacity regardless of the
	// period mix. WCETs stay exact rationals; the common denominator is
	// bounded by 2000·count, far below the int64 tick-lowering overflow
	// cutoff even at the 100k tier.
	den := 2 * int64(i) * 1000
	for _, layer := range layers {
		for _, s := range layer {
			wcet := rational.New(s.periodMs*int64(opts.Processors), den)
			n.AddPeriodic(s.name, rational.Milli(s.periodMs), rational.Milli(s.periodMs),
				wcet, &mixer{name: s.name})
		}
	}

	// One input channel per non-source process, from a random process of
	// the previous layer, with writer-over-reader functional priority.
	for l := 1; l < opts.Depth; l++ {
		for _, s := range layers[l] {
			w := layers[l-1][rng.Intn(len(layers[l-1]))]
			ch := fmt.Sprintf("c_%s_%s", w.name, s.name)
			if w.periodMs == s.periodMs {
				n.Connect(w.name, s.name, ch, core.FIFO)
			} else {
				n.ConnectInit(w.name, s.name, ch, 0)
			}
			n.Priority(w.name, s.name)
		}
	}

	// Minimal external I/O: one observable source and one observable sink
	// keep report assembly out of the per-job measurement.
	n.Input(layers[0][0].name, "IN")
	last := layers[opts.Depth-1]
	n.Output(last[len(last)-1].name, "OUT")
	return n
}

// maxBursts caps the bursts RandomEvents draws per sporadic process.
const maxBursts = 1024

// RandomEvents generates a sporadic event schedule over [0, horizon)
// honouring every generator's (m, T) constraint and keeping all handling
// windows inside the horizon. It walks int64 ticks of one timescale for
// the horizon, the sporadic periods and 1 ms, draws at most maxBursts
// bursts per process, and skips a process whose values do not fit that
// timescale.
func RandomEvents(rng *rand.Rand, net *core.Network, horizon core.Time) map[string][]core.Time {
	ms := rational.Milli(1)
	vals := []rational.Rat{horizon, ms}
	for _, p := range net.Processes() {
		if p.IsSporadic() {
			vals = append(vals, p.Period())
		}
	}
	sc, scaled := rational.CommonScale(vals)
	hT, okH := sc.Ticks(horizon)
	msT := sc.Den() / 1000
	out := make(map[string][]core.Time)
	for _, p := range net.Processes() {
		if !p.IsSporadic() {
			continue
		}
		// Conservative spacing: at least T + 10 ms between bursts of at
		// most m events 1 ms apart; stop one server window before the
		// horizon. Every tick drawn stays below hT + (m + 210)·msT.
		pT, okP := sc.Ticks(p.Period())
		reach, okR := rational.MulOK(msT, int64(p.Burst())+210)
		_, okS := rational.AddOK(hT, reach)
		if !scaled || !okH || !okP || !okR || !okS || pT <= 0 || hT-pT <= pT {
			continue
		}
		limit := hT - 2*pT
		t := int64(rng.Intn(50)) * msT
		var events []core.Time
		for b := 0; b < maxBursts && t < limit; b++ {
			count := 1 + rng.Intn(p.Burst())
			for i := 0; i < count; i++ {
				events = append(events, sc.FromTicks(t+int64(i)*msT))
			}
			t += pT + (int64(rng.Intn(200))+10)*msT
		}
		if len(events) > 0 {
			out[p.Name] = events
		}
	}
	return out
}

// Inputs generates deterministic external input samples for every external
// input channel of the network.
func Inputs(net *core.Network, count int) map[string][]core.Value {
	out := make(map[string][]core.Value)
	for _, ch := range net.ExternalInputs() {
		vals := make([]core.Value, count)
		for i := range vals {
			vals[i] = (i + 1) * (len(ch) + 1)
		}
		out[ch] = vals
	}
	return out
}

// mixer is the generic deterministic behaviour of generated processes: it
// drains its inputs, mixes them with an internal counter, and fans the
// result out to every output.
type mixer struct {
	name string
	k    int
	acc  int
}

func (m *mixer) Init() { m.k, m.acc = 0, 0 }

func (m *mixer) Step(ctx *core.JobContext) error {
	m.k++
	sum := m.acc
	// One read per input channel per job: FIFOs are consumed one sample
	// at a time, blackboards reread their latest value.
	for _, in := range ctx.Inputs() {
		if v, ok := ctx.Read(in); ok {
			if x, isInt := v.(int); isInt {
				sum += x
			}
		}
	}
	for _, in := range ctx.ExternalInputs() {
		if v, ok := ctx.ReadInput(in); ok {
			if x, isInt := v.(int); isInt {
				sum += x
			}
		}
	}
	sum = sum*31 + m.k + len(m.name)
	m.acc = sum % 1000003
	acc := ctx.BoxInt(m.acc)
	for _, out := range ctx.Outputs() {
		ctx.Write(out, acc)
	}
	for _, ext := range ctx.ExternalOutputs() {
		ctx.WriteOutput(ext, acc)
	}
	return nil
}

func (m *mixer) Clone() core.Behavior { return &mixer{name: m.name} }

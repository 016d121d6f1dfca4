package lint

import (
	"sort"

	"repro/internal/core"
	"repro/internal/rational"
)

func ms(n int64) core.Time { return rational.Milli(n) }

// Fixtures returns deliberately broken networks keyed by name, used by the
// golden diagnostics tests and exposed through fppnvet -app so every
// diagnostic code can be demonstrated from the command line:
//
//   - "broken-model" violates the hard model rules (FPPN001–005) and
//     demonstrates the FP completion suggestions (FPPN016);
//   - "broken-timing" is a valid model whose timing triggers FPPN006–012,
//     FPPN012 as an error: its frame is beyond 2^20 jobs;
//   - "broken-flow" is a valid, schedulable model whose token flow
//     triggers the static dataflow rules (FPPN014, FPPN015, FPPN017);
//   - "broken-feas" is a valid, schedulable model whose derived task
//     graph triggers the schedulability rules (FPPN018, FPPN019);
//   - "broken-hb" is a schedulable model whose only flaw is one
//     FP-uncovered channel; the happens-before verifier exhibits the
//     resulting unordered access pair (FPPN020);
//   - "broken-timescale" passes validation but its timing does not fit
//     the integer timescale (FPPN021);
//   - "empty" triggers FPPN013.
func Fixtures() map[string]func() *core.Network {
	return map[string]func() *core.Network{
		"broken-model":     BrokenModel,
		"broken-timing":    BrokenTiming,
		"broken-flow":      BrokenFlow,
		"broken-feas":      BrokenFeas,
		"broken-hb":        BrokenHB,
		"broken-timescale": BrokenTimescale,
		"empty":            func() *core.Network { return core.NewNetwork("empty") },
	}
}

// FixtureNames returns the fixture names, sorted.
func FixtureNames() []string {
	var out []string
	for name := range Fixtures() {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// BrokenModel builds a network violating every error-severity rule:
// a duplicate process name (FPPN001), a functional-priority cycle
// (FPPN002), an FP-uncovered channel (FPPN003), sporadic processes with no
// user, two users and a too-slow user (FPPN004), and a zero WCET (FPPN005).
func BrokenModel() *core.Network {
	n := core.NewNetwork("broken-model")
	n.AddPeriodic("dup", ms(100), ms(100), ms(1), core.NopBehavior)
	n.AddPeriodic("dup", ms(100), ms(100), ms(1), core.NopBehavior) // FPPN001

	// FPPN002: a -> b -> c -> a.
	n.AddPeriodic("a", ms(100), ms(100), ms(1), core.NopBehavior)
	n.AddPeriodic("b", ms(100), ms(100), ms(1), core.NopBehavior)
	n.AddPeriodic("c", ms(100), ms(100), ms(1), core.NopBehavior)
	n.PriorityChain("a", "b", "c", "a")

	// FPPN003: d -> e channel with no priority between d and e.
	n.AddPeriodic("d", ms(100), ms(100), ms(1), core.NopBehavior)
	n.AddPeriodic("e", ms(100), ms(100), ms(1), core.NopBehavior)
	n.Connect("d", "e", "uncovered", core.FIFO)

	// FPPN004, three ways: no user; two users; user slower than the
	// sporadic period.
	n.AddSporadic("loner", 1, ms(400), ms(400), ms(1), core.NopBehavior)
	n.AddSporadic("torn", 1, ms(400), ms(400), ms(1), core.NopBehavior)
	n.ConnectInit("torn", "a", "torn_a", 0)
	n.ConnectInit("torn", "b", "torn_b", 0)
	n.Priority("a", "torn")
	n.Priority("b", "torn")
	n.AddPeriodic("slowUser", ms(800), ms(800), ms(1), core.NopBehavior)
	n.AddSporadic("rushed", 1, ms(400), ms(600), ms(1), core.NopBehavior)
	n.ConnectInit("rushed", "slowUser", "rushed_cfg", 0)
	n.Priority("slowUser", "rushed")

	// FPPN005: zero WCET.
	n.AddPeriodic("idle", ms(100), ms(100), rational.Zero, core.NopBehavior)

	n.Output("e", "OUT")
	n.Output("a", "OUT_A")
	n.Output("slowUser", "OUT_SLOW")
	n.Output("idle", "OUT_IDLE")
	return n
}

// BrokenTiming builds a fully valid network whose timing triggers the
// timing rules: a sporadic process with d ≤ T_u (FPPN006), a WCET above
// its deadline (FPPN007), total utilization above two processors
// (FPPN008), two FP-unordered periodic blackboard writers merged by one
// reader (FPPN009), a channel into an unobservable process (FPPN010,
// FPPN011), and severely non-harmonic periods (FPPN012, an error: the
// 24,945,752-job frame is beyond taskgraph.MaxFrameJobs).
func BrokenTiming() *core.Network {
	n := core.NewNetwork("broken-timing")

	// FPPN008: three heavy processes, U = 3 * 90/100 = 2.7 > 2.
	for _, name := range []string{"heavy1", "heavy2", "heavy3"} {
		n.AddPeriodic(name, ms(100), ms(100), ms(90), core.NopBehavior)
		n.Output(name, "OUT_"+name)
	}

	// FPPN006: user period 400 ms ≥ sporadic deadline 300 ms.
	n.AddPeriodic("user", ms(400), ms(400), ms(1), core.NopBehavior)
	n.AddSporadic("late", 1, ms(800), ms(300), ms(1), core.NopBehavior)
	n.ConnectInit("late", "user", "late_cfg", 0)
	n.Priority("user", "late")
	n.Output("user", "OUT_user")

	// FPPN007: 30 ms of work against a 20 ms deadline.
	n.AddPeriodic("cramped", ms(400), ms(20), ms(30), core.NopBehavior)
	n.Output("cramped", "OUT_cramped")

	// FPPN009: two FP-unordered periodic writers feed blackboards into
	// one merger.
	n.AddPeriodic("left", ms(200), ms(200), ms(1), core.NopBehavior)
	n.AddPeriodic("right", ms(200), ms(200), ms(1), core.NopBehavior)
	n.AddPeriodic("merge", ms(200), ms(200), ms(1), core.NopBehavior)
	n.ConnectInit("left", "merge", "bb_left", 0)
	n.ConnectInit("right", "merge", "bb_right", 0)
	n.Priority("left", "merge")
	n.Priority("right", "merge")
	n.Output("merge", "OUT_merge")

	// FPPN010 + FPPN011: feeder -> sink never reaches an output.
	n.AddPeriodic("feeder", ms(400), ms(400), ms(1), core.NopBehavior)
	n.AddPeriodic("sink", ms(400), ms(400), ms(1), core.NopBehavior)
	n.Connect("feeder", "sink", "into_the_void", core.FIFO)
	n.Priority("feeder", "sink")

	// FPPN012: two coprime millisecond periods push H to ~16.7 minutes
	// against the 100 ms base rate.
	n.AddPeriodic("prime997", ms(997), ms(997), ms(1), core.NopBehavior)
	n.AddPeriodic("prime1009", ms(1009), ms(1009), ms(1), core.NopBehavior)
	n.Output("prime997", "OUT_997")
	n.Output("prime1009", "OUT_1009")
	return n
}

// stub carries the default channel access profile (one write per writer
// job, at most one read per reader job), unlike core.NopBehavior which
// declares that the process touches no channels at all. The dataflow
// fixture needs processes that do move tokens; lint never executes them.
var stub = core.BehaviorFunc(func(*core.JobContext) error { return nil })

// BrokenFlow builds a valid, schedulable network whose token flow
// triggers the static dataflow rules: a 100 ms writer into a 400 ms
// single-token reader grows the backlog without bound (FPPN014), a 1 ms
// writer into a 400 ms draining reader peaks at 400 queued tokens
// (FPPN017), and three processes with WCET equal to their common 400 ms
// deadline force a three-processor demand on top (FPPN015).
func BrokenFlow() *core.Network {
	n := core.NewNetwork("broken-flow")

	// FPPN014: four tokens in, one token out per hyperperiod.
	n.AddPeriodic("fastW", ms(100), ms(100), ms(1), stub)
	n.AddPeriodic("slowR", ms(400), ms(400), ms(1), stub)
	n.Connect("fastW", "slowR", "growing", core.FIFO)
	n.Priority("fastW", "slowR")
	n.Output("slowR", "OUT_slow")

	// FPPN017: the drain keeps the channel balanced, but 400 tokens
	// accumulate before each drain.
	n.AddPeriodic("burstW", ms(1), ms(1), ms(1), stub)
	n.AddPeriodic("drainR", ms(400), ms(400), ms(1), stub)
	n.Connect("burstW", "drainR", "deep", core.FIFO).Drain()
	n.Priority("burstW", "drainR")
	n.Output("drainR", "OUT_drain")

	// FPPN015: three jobs of 400 ms of work each against a shared
	// [0, 400] ms window. The schedulability suite sees the same three
	// jobs through the derived task graph, so FPPN018 fires here too.
	for _, name := range []string{"h1", "h2", "h3"} {
		n.AddPeriodic(name, ms(400), ms(400), ms(400), core.NopBehavior)
		n.Output(name, "OUT_"+name)
	}
	return n
}

// BrokenHB builds a schedulable two-process pipeline whose single channel
// lacks the FP edge between writer and reader — the exact precondition
// violation of Proposition 2.1. The coverage gap itself is FPPN003; the
// happens-before verifier then compiles the plan anyway and exhibits the
// concrete consequence: with 300 ms of work per process against a 400 ms
// frame, any feasible two-processor schedule splits the pair onto
// different processors, leaving the channel's write and read unordered
// (FPPN020).
func BrokenHB() *core.Network {
	n := core.NewNetwork("broken-hb")
	n.AddPeriodic("sensor", ms(400), ms(400), ms(300), stub)
	n.AddPeriodic("logger", ms(400), ms(400), ms(300), stub)
	n.Connect("sensor", "logger", "samples", core.FIFO)
	n.Output("logger", "log")
	return n
}

// BrokenFeas builds a valid, schedulable model whose derived task graph
// is infeasible at any capacity: a three-stage pipeline of 45 ms stages
// against a shared 100 ms period and deadline. Each stage alone is fine
// (FPPN007 stays silent), utilization is 1.35 (FPPN008 silent) and the
// nominal demand bound fits two processors (FPPN015 silent: 135 ms
// against a 100 ms window forces exactly two), but the precedence
// adjustment squeezes every job window below its 45 ms WCET (FPPN019)
// and the corner sweep finds 45 ms of chain-constrained work in a 10 ms
// window (FPPN018).
func BrokenFeas() *core.Network {
	n := core.NewNetwork("broken-feas")
	n.AddPeriodic("stageA", ms(100), ms(100), ms(45), stub)
	n.AddPeriodic("stageB", ms(100), ms(100), ms(45), stub)
	n.AddPeriodic("stageC", ms(100), ms(100), ms(45), stub)
	n.Connect("stageA", "stageB", "ab", core.FIFO)
	n.Connect("stageB", "stageC", "bc", core.FIFO)
	n.PriorityChain("stageA", "stageB", "stageC")
	n.Output("stageC", "OUT")
	return n
}

// BrokenTimescale builds a valid, schedulable two-process model whose
// timing has no int64 timescale within the guard: one WCET of
// 1/(3·10^12) s puts the tick at 1/(3·10^12) s, so the 1 s and 2 s periods
// span 3·10^12 and 6·10^12 ticks, beyond 2^40 (FPPN021).
func BrokenTimescale() *core.Network {
	n := core.NewNetwork("broken-timescale")
	n.AddPeriodic("fast", rational.One, rational.One, rational.New(1, 3_000_000_000_000), core.NopBehavior)
	n.AddPeriodic("slow", rational.FromInt(2), rational.FromInt(2), ms(100), core.NopBehavior)
	n.Output("fast", "OUT_fast")
	n.Output("slow", "OUT_slow")
	return n
}

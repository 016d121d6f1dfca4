package lint

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/feas"
	"repro/internal/hb"
	"repro/internal/plan"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/staticflow"
	"repro/internal/taskgraph"
)

// Diagnostic codes. FPPN001–005 are the error-severity rules shared with
// core.Validate / ValidateSchedulable (the rule logic lives in
// core.Problems and core.SchedulableProblems; this package converts the
// problems one-to-one). FPPN006–020 are lint-only warnings; FPPN021 is the
// error-severity timescale check of taskgraph.LowerTiming.
const (
	CodeBuilder        = core.CodeBuilder      // FPPN001
	CodeFPCycle        = core.CodeFPCycle      // FPPN002
	CodeFPCoverage     = core.CodeFPCoverage   // FPPN003
	CodeSporadicUser   = core.CodeSporadicUser // FPPN004
	CodeWCET           = core.CodeWCET         // FPPN005
	CodeServerDeadline = "FPPN006"
	CodeWCETDeadline   = "FPPN007"
	CodeUtilization    = "FPPN008"
	CodeBlackboardFP   = "FPPN009"
	CodeDeadChannel    = "FPPN010"
	CodeDeadProcess    = "FPPN011"
	CodeHyperperiod    = "FPPN012"
	CodeEmptyNetwork   = "FPPN013"
	// FPPN014, FPPN016 and FPPN017 are backed by the closed-form dataflow
	// analyses of internal/staticflow, FPPN015 by the processor-demand
	// bound of the derived task graph; they run only on well-formed
	// networks whose hyperperiod frame stays within Options.MaxFrameJobs
	// (and, for FPPN015, maxDeriveJobs).
	CodeUnbalancedChannel = "FPPN014"
	CodeDemandBound       = "FPPN015"
	CodeFPSuggestion      = "FPPN016"
	CodeBufferBound       = "FPPN017"
	// FPPN018–019 are backed by the schedulability suite of internal/feas
	// over the derived task graph; they run only on well-formed networks
	// whose hyperperiod frame stays within maxDeriveJobs.
	CodeFeasLoad   = "FPPN018"
	CodeFeasWindow = "FPPN019"
	// FPPN020 is backed by the happens-before verifier of internal/hb
	// over a compiled plan; it runs on networks whose only error-severity
	// problems (if any) are FP-coverage gaps, turning a missing FP edge
	// into a concrete unordered access-pair witness.
	CodeHBUnordered = "FPPN020"
	// FPPN021 is the timescale check of taskgraph.LowerTiming: the one
	// lint-only error, because the compile pipeline rejects such a model.
	CodeTimescale = "FPPN021"
)

// Rules is the ordered diagnostic registry. Run executes the rules in this
// order; DESIGN.md documents each entry with its paper reference.
var Rules = []Rule{
	{Code: CodeBuilder, Severity: Error,
		Title: "malformed network construction",
		Ref:   "Def. 2.1 (process network well-formedness)",
		run:   runCoreProblems},
	{Code: CodeFPCycle, Severity: Error,
		Title: "functional-priority cycle",
		Ref:   "Def. 2.1 (FP must be an acyclic relation)",
		run:   runCoreProblems},
	{Code: CodeFPCoverage, Severity: Error,
		Title: "channel pair not covered by FP",
		Ref:   "Def. 2.1 / Prop. 2.1 ((p1,p2) ∈ C ⇒ p1→p2 ∨ p2→p1)",
		run:   runCoreProblems},
	{Code: CodeSporadicUser, Severity: Error,
		Title: "sporadic-user subclass violation",
		Ref:   "§III-A (unique periodic user with T_u(p) ≤ T_p)",
		run:   runCoreProblems},
	{Code: CodeWCET, Severity: Error,
		Title: "non-positive WCET",
		Ref:   "§III-B (list scheduler requires C > 0)",
		run:   runCoreProblems},
	{Code: CodeServerDeadline, Severity: Warning,
		Title: "server deadline fallback",
		Ref:   "§III-A footnote 3 (d_p − T_u(p) ≤ 0 → fractional server period)",
		run:   runServerDeadline},
	{Code: CodeWCETDeadline, Severity: Warning,
		Title: "WCET exceeds deadline",
		Ref:   "Def. 3.1 (C_i > D_i − A_i makes every job infeasible)",
		run:   runWCETDeadline},
	{Code: CodeUtilization, Severity: Warning,
		Title: "utilization exceeds capacity",
		Ref:   "Prop. 3.1 (Load ≥ Σ C/T; U > m admits no feasible schedule)",
		run:   runUtilization},
	{Code: CodeBlackboardFP, Severity: Warning,
		Title: "FP-unordered blackboard writers merged by one reader",
		Ref:   "§II-B (blackboard freshness at equal time stamps is fixed only by FP)",
		run:   runBlackboardMerge},
	{Code: CodeDeadChannel, Severity: Warning,
		Title: "dead channel",
		Ref:   "§II (data never reaches an external output)",
		run:   runDeadChannels},
	{Code: CodeDeadProcess, Severity: Warning,
		Title: "unobservable process",
		Ref:   "§II (no channel path to an external output)",
		run:   runDeadProcesses},
	{Code: CodeHyperperiod, Severity: Warning,
		Title: "hyperperiod blow-up",
		Ref:   "§V-B (non-harmonic periods inflate H; the paper reduced FMS 1600→400 ms)",
		run:   runHyperperiod},
	{Code: CodeEmptyNetwork, Severity: Warning,
		Title: "empty network",
		Ref:   "§III-A (nothing to derive a task graph from)",
		run:   runEmptyNetwork},
	{Code: CodeUnbalancedChannel, Severity: Warning,
		Title: "unbalanced channel",
		Ref:   "§II-B (FIFO queues must stay bounded; SDF balance equations)",
		run:   runUnbalancedChannels},
	{Code: CodeDemandBound, Severity: Warning,
		Title: "processor demand exceeds capacity",
		Ref:   "Prop. 3.1 (processor-demand criterion bounds MinProcessors from below)",
		run:   runDemandBound},
	{Code: CodeFPSuggestion, Severity: Warning,
		Title: "suggested FP completion edge",
		Ref:   "Prop. 2.1 (a minimal acyclic edge set restores FP coverage)",
		run:   runFPSuggestions},
	{Code: CodeBufferBound, Severity: Warning,
		Title: "FIFO high-water above budget",
		Ref:   "§II-B (static buffer bound exceeds the provisioning budget)",
		run:   runBufferBounds},
	{Code: CodeFeasLoad, Severity: Warning,
		Title: "precedence-aware load exceeds capacity",
		Ref:   "§III-B / Bonifaci et al. (load on ASAP/ALAP windows bounds MinProcessors)",
		run:   runFeasLoad},
	{Code: CodeFeasWindow, Severity: Warning,
		Title: "derived job window cannot hold its WCET",
		Ref:   "Def. 3.1 (ASAP + C > ALAP: infeasible at any capacity)",
		run:   runFeasWindow},
	{Code: CodeHBUnordered, Severity: Warning,
		Title: "unordered conflicting accesses in the compiled plan",
		Ref:   "Prop. 2.1 (happens-before certification of the derived precedence)",
		run:   runHBUnordered},
	{Code: CodeTimescale, Severity: Error,
		Title: "timing does not fit the integer timescale",
		Ref:   "§II (T_p ∈ Q+; H = lcm{T_p} must be a whole number of int64 ticks)",
		run:   runTimescale},
}

// runCoreProblems converts the core problems carrying the rule's
// diagnostic code into findings. The problem lists are computed lazily
// once per run. FPPN003 findings get their generic either-direction fix
// replaced by the definitive edge from the static FP completion, which
// is guaranteed not to close a cycle.
func runCoreProblems(c *context, r Rule) {
	for _, p := range c.coreProblems() {
		if p.Code != r.Code {
			continue
		}
		fix := p.Fix
		if p.Code == core.CodeFPCoverage {
			if s, ok := c.suggestionFor(p.Subject); ok {
				fix = fmt.Sprintf("add Priority(%q, %q)", s.Hi, s.Lo)
			}
		}
		c.addf(r, p.SubjectKind, p.Subject, fix, "%s", p.Message)
	}
}

func (c *context) coreProblems() []core.Problem {
	if c.problems == nil {
		ps := append(c.net.Problems(), c.net.SchedulableProblems()...)
		if ps == nil {
			ps = []core.Problem{}
		}
		c.problems = ps
	}
	return c.problems
}

// runServerDeadline warns when a sporadic process's corrected server
// deadline d_p − T_u(p) would not be positive, so the task-graph derivation
// falls back to the fractional server period T_u/q of footnote 3.
func runServerDeadline(c *context, r Rule) {
	for _, p := range c.net.Processes() {
		if !p.IsSporadic() {
			continue
		}
		u, err := c.net.UserOf(p.Name)
		if err != nil {
			continue // FPPN004 already fired
		}
		tu, d := u.Period(), p.Deadline()
		if tu.Less(d) || d.Sign() <= 0 {
			continue // a non-positive deadline is FPPN001's
		}
		slack := ""
		if diff, ok := subOK(d, tu); ok {
			slack = fmt.Sprintf(" = %vs", diff)
		}
		fallback := "no fractional server period T_u/q fits int64"
		if q, tp, ok := taskgraph.FractionalServerPeriod(tu, d); ok {
			fallback = fmt.Sprintf("derivation falls back to fractional server period T_u/%d = %vs", q, tp)
		}
		c.addf(r, "process", p.Name,
			fmt.Sprintf("raise the deadline of %q above the user period %vs", p.Name, tu),
			"sporadic %q: corrected server deadline d−T_u%s is not positive (d=%vs, user %q period %vs); %s",
			p.Name, slack, d, u.Name, tu, fallback)
	}
}

// subOK returns a − b; ok is false when the exact difference does not fit
// an int64 numerator and denominator.
func subOK(a, b rational.Rat) (rational.Rat, bool) {
	x, okX := rational.MulOK(a.Num(), b.Den())
	y, okY := rational.MulOK(b.Num(), -a.Den())
	num, okN := rational.AddOK(x, y)
	den, okD := rational.MulOK(a.Den(), b.Den())
	if !okX || !okY || !okN || !okD {
		return rational.Rat{}, false
	}
	return rational.New(num, den), true
}

// runWCETDeadline warns when a process's WCET exceeds its relative
// deadline: every job of the process overruns even alone on a processor.
func runWCETDeadline(c *context, r Rule) {
	for _, p := range c.net.Processes() {
		if p.WCET.Sign() <= 0 {
			continue // FPPN005 already fired
		}
		if p.Deadline().Less(p.WCET) {
			c.addf(r, "process", p.Name,
				"reduce the WCET or extend the deadline",
				"process %q: WCET %vs exceeds relative deadline %vs; every job misses even on an idle processor",
				p.Name, p.WCET, p.Deadline())
		}
	}
}

// runUtilization warns when the total derived utilization exceeds the
// assumed processor count. Sporadic processes are charged at burst per
// user period, the server rate of the task graph the scheduler actually
// sees. The utilization is the frame's WCET volume over H, summed in
// ticks of lint's lowered timing, so the rule is skipped when that timing
// does not fit (FPPN021) or PN' does not exist. A volume beyond int64
// means a load above 2^63 ticks / H ≥ 2^23 processors; it is then
// reported from a float64 sum.
func runUtilization(c *context, r Rule) {
	tm, err := c.timing()
	if err != nil {
		return
	}
	var vol int64
	var volF float64
	fits := true
	for pid, p := range c.net.Processes() {
		period := tm.Period[pid]
		if p.IsSporadic() {
			usr, err := c.net.UserOf(p.Name)
			if err != nil {
				continue
			}
			period = tm.Period[c.net.Pid(usr.Name)]
		}
		if tm.WCET[pid] <= 0 {
			continue
		}
		jobs, ok1 := rational.MulOK(tm.H/period, int64(p.Burst()))
		work, ok2 := rational.MulOK(jobs, tm.WCET[pid])
		sum, ok3 := rational.AddOK(vol, work)
		fits = fits && ok1 && ok2 && ok3
		vol = sum
		volF += float64(tm.H/period) * float64(p.Burst()) * float64(tm.WCET[pid])
	}
	var load float64
	var fix string
	if fits {
		capacity, ok := rational.MulOK(int64(c.opts.Processors), tm.H)
		if !ok || vol <= capacity {
			return
		}
		u := rational.New(vol, tm.H)
		load, fix = u.Float64(), fmt.Sprintf("schedule on at least %d processors", u.Ceil())
	} else {
		if load = volF / float64(tm.H); load <= float64(c.opts.Processors) {
			return
		}
		fix = fmt.Sprintf("schedule on at least %.0f processors", math.Ceil(load))
	}
	c.addf(r, "network", c.net.Name, fix,
		"total utilization %.3f exceeds the capacity of %d processor(s); no feasible schedule exists",
		load, c.opts.Processors)
}

// runBlackboardMerge warns when one reader merges blackboard inputs from
// two periodic writers that are not FP-related to each other: the model
// stays deterministic (each writer-reader pair is ordered), but which of
// the two inputs is fresher at equal invocation time stamps is not
// documented by the priority relation. Sporadic writers are exempt — their
// relative freshness is decided by the environment, not the model.
func runBlackboardMerge(c *context, r Rule) {
	type in struct{ writer, channel string }
	byReader := make(map[string][]in)
	for _, ch := range c.net.Channels() {
		if ch.Kind != core.Blackboard || ch.Writer == ch.Reader {
			continue
		}
		w := c.net.Process(ch.Writer)
		if w == nil || w.IsSporadic() {
			continue
		}
		byReader[ch.Reader] = append(byReader[ch.Reader], in{ch.Writer, ch.Name})
	}
	readers := make([]string, 0, len(byReader))
	for rd := range byReader {
		readers = append(readers, rd)
	}
	sort.Strings(readers)
	for _, rd := range readers {
		ins := byReader[rd]
		for i := 0; i < len(ins); i++ {
			for j := i + 1; j < len(ins); j++ {
				a, b := ins[i], ins[j]
				if a.writer == b.writer || c.net.PriorityRelated(a.writer, b.writer) {
					continue
				}
				c.addf(r, "process", rd,
					fmt.Sprintf("add Priority(%q, %q) or Priority(%q, %q) to document the intended freshness order",
						a.writer, b.writer, b.writer, a.writer),
					"process %q merges blackboard inputs %q (from %q) and %q (from %q) whose periodic writers are not FP-related; their relative freshness at equal time stamps is unspecified",
					rd, a.channel, a.writer, b.channel, b.writer)
			}
		}
	}
}

// observable computes, for every process, whether its results can reach an
// external output: the process has one itself, or some channel successor
// does.
func (c *context) observableSet() map[string]bool {
	if c.observable != nil {
		return c.observable
	}
	succ := make(map[string][]string)
	for _, ch := range c.net.Channels() {
		if ch.Writer != ch.Reader {
			succ[ch.Writer] = append(succ[ch.Writer], ch.Reader)
		}
	}
	obs := make(map[string]bool)
	var stack []string
	for _, p := range c.net.Processes() {
		if len(p.ExternalOutputs()) > 0 {
			obs[p.Name] = true
		}
	}
	// Reverse reachability: a writer feeding an observable reader is
	// observable. Iterate to the fixpoint (the channel graph is tiny).
	pred := make(map[string][]string)
	for w, readers := range succ {
		for _, rd := range readers {
			pred[rd] = append(pred[rd], w)
		}
	}
	for p := range obs {
		stack = append(stack, p)
	}
	sort.Strings(stack)
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range pred[p] {
			if !obs[w] {
				obs[w] = true
				stack = append(stack, w)
			}
		}
	}
	c.observable = obs
	return obs
}

// runDeadChannels warns about channels whose reader can never propagate
// the data to an external output: everything written there is dead.
func runDeadChannels(c *context, r Rule) {
	obs := c.observableSet()
	for _, ch := range c.net.Channels() {
		if obs[ch.Reader] {
			continue
		}
		if c.net.Process(ch.Reader) == nil {
			continue // FPPN001 already fired
		}
		c.addf(r, "channel", ch.Name,
			fmt.Sprintf("attach an Output to %q or connect it toward an observable process", ch.Reader),
			"channel %q: data flowing into %q never reaches an external output (dead channel)",
			ch.Name, ch.Reader)
	}
}

// runDeadProcesses warns about processes with no path to any external
// output: their jobs consume processor time without observable effect.
func runDeadProcesses(c *context, r Rule) {
	if len(c.net.Processes()) == 0 {
		return
	}
	obs := c.observableSet()
	for _, p := range c.net.Processes() {
		if obs[p.Name] {
			continue
		}
		c.addf(r, "process", p.Name,
			"attach an Output or connect the process toward an observable one",
			"process %q has no channel path to any external output; its computation is unobservable",
			p.Name)
	}
}

// runHyperperiod warns when non-harmonic periods blow the frame up: too
// many jobs per hyperperiod, or a hyperperiod vastly longer than the
// fastest period. Exact-arithmetic overflow while forming the LCM or the
// job count is itself reported as a (worst-case) instance of the same
// diagnostic.
func runHyperperiod(c *context, r Rule) {
	procs := c.net.Processes()
	if len(procs) == 0 {
		return
	}
	// Derived periods: sporadic processes run at their server period.
	// fits turns false when a fractional server period overflows.
	periods := make([]core.Time, len(procs))
	fits := true
	for i, p := range procs {
		periods[i] = p.Period()
		if !p.IsSporadic() {
			continue
		}
		u, err := c.net.UserOf(p.Name)
		if err != nil {
			return // FPPN004 already fired; H of PN' is undefined
		}
		periods[i] = u.Period()
		if !u.Period().Less(p.Deadline()) && p.Deadline().Sign() > 0 {
			_, frac, ok := taskgraph.FractionalServerPeriod(u.Period(), p.Deadline())
			if ok {
				periods[i] = frac
			}
			fits = fits && ok
		}
	}
	for _, t := range periods {
		if t.Sign() <= 0 {
			return // FPPN001 already fired
		}
	}
	h, ok := rational.LcmAll(periods)
	var jobs, ratio int64
	if ok && fits {
		jobs, ratio, ok = frameJobs(h, procs, periods)
	}
	if !ok || !fits {
		c.addf(r, "network", c.net.Name,
			"harmonize the process periods",
			"hyperperiod of the process periods overflows exact rational arithmetic; the periods are severely non-harmonic")
		return
	}
	if jobs > int64(c.opts.MaxFrameJobs) || ratio > c.opts.MaxPeriodRatio {
		c.addf(r, "network", c.net.Name,
			"harmonize the process periods (cf. the paper's FMS reduction 1600 ms → 400 ms)",
			"hyperperiod %vs spans %d jobs per frame (H/min-period = %d); non-harmonic periods blow the task graph up",
			h, jobs, ratio)
	}
}

// frameJobs returns the job count of one frame of length h, the sum of
// ⌊h/T⌋·burst over procs with T taken from periods, and the largest
// ⌊h/T⌋, which is H/min-period; ok is false when either overflows int64.
func frameJobs(h core.Time, procs []*core.Process, periods []core.Time) (jobs, ratio int64, ok bool) {
	for i, p := range procs {
		n, ok := h.FloorDivOK(periods[i])
		if !ok {
			return 0, 0, false
		}
		ratio = max(ratio, n)
		prod, ok := rational.MulOK(n, int64(p.Burst()))
		if !ok {
			return 0, 0, false
		}
		if jobs, ok = rational.AddOK(jobs, prod); !ok {
			return 0, 0, false
		}
	}
	return jobs, ratio, true
}

// maxStaticSweepJobs caps the two-frame buffer sweep regardless of how
// far Options.MaxFrameJobs is raised: unlike the threshold rules, the
// sweep actually enumerates the frame, so it keeps its own hard budget.
const maxStaticSweepJobs = 100_000

// staticProfile lazily computes the 2-frame static buffer sweep behind
// FPPN014 and FPPN017. It returns nil — silently skipping those rules —
// on ill-formed networks (the error rules already fired and the
// zero-delay order is undefined) and on frames larger than
// Options.MaxFrameJobs (FPPN012 covers those).
func (c *context) staticProfile() *staticflow.BufferProfile {
	if c.bufferTried {
		return c.bufferProfile
	}
	c.bufferTried = true
	if len(c.net.Problems()) > 0 {
		return nil
	}
	budget := int64(c.opts.MaxFrameJobs)
	if budget > maxStaticSweepJobs {
		budget = maxStaticSweepJobs
	}
	// The sweep enumerates PN itself, so the raw periods bound its frame.
	h, err := core.Hyperperiod(c.net, nil)
	if err != nil {
		return nil
	}
	procs := c.net.Processes()
	periods := make([]core.Time, len(procs))
	for i, p := range procs {
		periods[i] = p.Period()
	}
	if jobs, _, ok := frameJobs(h, procs, periods); !ok || jobs > budget/2 {
		return nil
	}
	p, err := staticflow.Buffers(c.net, 2, nil)
	if err != nil {
		return nil
	}
	c.bufferProfile = p
	return p
}

// runUnbalancedChannels warns about FIFO channels whose backlog grows
// strictly from hyperperiod to hyperperiod: the producer outpaces the
// consumer and no finite buffer suffices in the long run.
func runUnbalancedChannels(c *context, r Rule) {
	p := c.staticProfile()
	if p == nil {
		return
	}
	for _, cb := range p.Channels() {
		if !cb.Unbalanced {
			continue
		}
		n := len(cb.EndOfFrameBacklog)
		c.addf(r, "channel", cb.Name,
			fmt.Sprintf("drain the channel in %q (Drain()), slow %q, or speed %q up", cb.Reader, cb.Writer, cb.Reader),
			"channel %q: writer %q outpaces reader %q; the backlog grows from %d to %d tokens across consecutive hyperperiods and no finite FIFO suffices",
			cb.Name, cb.Writer, cb.Reader, cb.EndOfFrameBacklog[n-2], cb.EndOfFrameBacklog[n-1])
	}
}

// runBufferBounds warns about balanced FIFO channels whose static
// high-water mark exceeds the provisioning budget; unbalanced channels
// are FPPN014's concern.
func runBufferBounds(c *context, r Rule) {
	p := c.staticProfile()
	if p == nil {
		return
	}
	for _, cb := range p.Channels() {
		if cb.Kind != core.FIFO || cb.Unbalanced || cb.HighWater <= c.opts.MaxBufferHighWater {
			continue
		}
		c.addf(r, "channel", cb.Name,
			"rebalance the writer/reader rates or raise Options.MaxBufferHighWater",
			"channel %q: static FIFO high-water mark is %d tokens, above the provisioning budget of %d",
			cb.Name, cb.HighWater, c.opts.MaxBufferHighWater)
	}
}

// runDemandBound warns when the processor-demand criterion already rules
// out a schedule on the assumed capacity: some window of the derived
// task graph's nominal (arrival, deadline) windows must contain more
// execution time than Options.Processors can serve.
func runDemandBound(c *context, r Rule) {
	if len(c.coreProblems()) > 0 || !c.derivable() {
		return // the demand bound needs a derived task graph
	}
	tg := c.taskGraph()
	if tg == nil {
		return
	}
	jt, err := tg.Ticks()
	if err != nil {
		return
	}
	w := jt.Demand()
	need := w.Processors()
	if need <= c.opts.Processors {
		return
	}
	c.addf(r, "network", c.net.Name,
		fmt.Sprintf("schedule on at least %d processors or reduce WCETs", need),
		"processor demand in [%vs, %vs] is %vs, forcing at least %d processors (assumed capacity %d)",
		w.Start, w.End, w.Demand, need, c.opts.Processors)
}

// fpSuggestions lazily computes the static FP completion.
func (c *context) fpSuggestions() []staticflow.Suggestion {
	if !c.suggestTried {
		c.suggestTried = true
		c.suggest = staticflow.SuggestFP(c.net)
	}
	return c.suggest
}

// suggestionFor returns the suggested edge covering the given channel,
// matching either endpoint orientation (one edge can cover several
// channels between the same pair).
func (c *context) suggestionFor(channel string) (staticflow.Suggestion, bool) {
	ch := c.net.Channel(channel)
	if ch == nil {
		return staticflow.Suggestion{}, false
	}
	for _, s := range c.fpSuggestions() {
		if (s.Hi == ch.Writer && s.Lo == ch.Reader) || (s.Hi == ch.Reader && s.Lo == ch.Writer) {
			return s, true
		}
	}
	return staticflow.Suggestion{}, false
}

// runFPSuggestions emits the machine-applicable FPPN003 fix: when
// coverage is incomplete, one finding per suggested edge of the minimal
// acyclic completion (fppnvet -suggest-fp prints the same set).
func runFPSuggestions(c *context, r Rule) {
	broken := false
	for _, p := range c.coreProblems() {
		if p.Code == core.CodeFPCoverage {
			broken = true
			break
		}
	}
	if !broken {
		return
	}
	for _, s := range c.fpSuggestions() {
		c.addf(r, "channel", s.Channel,
			fmt.Sprintf("add Priority(%q, %q)", s.Hi, s.Lo),
			"adding functional priority %q → %q completes the FP coverage of %q (and every other channel between the pair) without creating a cycle",
			s.Hi, s.Lo, s.Channel)
	}
}

// maxDeriveJobs caps the rules that derive the task graph: the demand
// bound (FPPN015), the schedulability suite (FPPN018/FPPN019) and the
// happens-before verdict (FPPN020). Deriving, scheduling and verifying
// cost real time per frame job, so large frames (the paper's 812-job FMS
// among them) are skipped to keep lint's hot path flat — sized analyses
// belong to the feas and fppn.VerifyDeterminism API surfaces, not the
// vet pass.
const maxDeriveJobs = 512

// taskGraph lazily derives the task graph the demand rule, feasReport and
// hbVerdict share (hbVerdict derives its own only for FP-coverage gaps,
// when the others do not run); nil when the derivation fails.
func (c *context) taskGraph() *taskgraph.TaskGraph {
	if !c.tgTried {
		c.tgTried = true
		c.tg, _ = taskgraph.Derive(c.net)
	}
	return c.tg
}

// feasReport lazily derives the task graph and runs the schedulability
// suite at the assumed capacity. nil silently skips FPPN018/FPPN019:
// ill-formed networks (the error rules already fired), frames beyond
// maxDeriveJobs or Options.MaxFrameJobs, and failed derivations.
func (c *context) feasReport() *feas.Report {
	if c.feasTried {
		return c.feasRep
	}
	c.feasTried = true
	if len(c.coreProblems()) > 0 {
		return nil
	}
	if !c.derivable() {
		return nil
	}
	tg := c.taskGraph()
	if tg == nil {
		return nil
	}
	if rep, err := feas.Analyze(tg, c.opts.Processors, feas.Options{}); err == nil {
		c.feasRep = rep
	}
	return c.feasRep
}

// runFeasLoad warns when the precedence-aware load of the derived task
// graph — demand over (ASAP, ALAP) corner windows — already forces more
// processors than assumed. Strictly stronger than FPPN015's nominal
// demand bound: precedence chains squeeze the windows, raising the load.
func runFeasLoad(c *context, r Rule) {
	rep := c.feasReport()
	if rep == nil {
		return
	}
	lb := rep.Workload.MinProcessorsLB()
	if lb <= c.opts.Processors {
		return
	}
	w, ok := rep.Workload.Critical()
	if !ok {
		return
	}
	c.addf(r, "network", c.net.Name,
		fmt.Sprintf("schedule on at least %d processors or break the long chains", lb),
		"precedence-aware load %v forces at least %d processors (assumed capacity %d): window [%vs, %vs] must hold %vs of chain-constrained work",
		rep.Workload.Load, lb, c.opts.Processors, w.Start, w.End, w.Demand)
}

// runFeasWindow warns when a derived job cannot fit its precedence-
// adjusted window: the chain feeding it (ASAP) meets the chain after it
// (ALAP) and the WCET no longer fits, so the job misses its deadline on
// any number of processors. One finding per process, anchored at its
// first violating job.
func runFeasWindow(c *context, r Rule) {
	rep := c.feasReport()
	if rep == nil {
		return
	}
	seen := make(map[string]bool)
	for _, v := range rep.Workload.WindowViolations() {
		if seen[v.Proc] {
			continue
		}
		seen[v.Proc] = true
		c.addf(r, "process", v.Proc,
			fmt.Sprintf("shorten the chains around %q or extend deadlines along them", v.Proc),
			"derived job %s cannot fit its precedence-adjusted window on any processor count: earliest completion %vs is past the latest allowed %vs",
			v.Job, v.Complete, v.Deadline)
	}
}

// runEmptyNetwork warns when the network has no processes at all: it
// passes validation vacuously but nothing can be derived from it.
func runEmptyNetwork(c *context, r Rule) {
	if len(c.net.Processes()) == 0 {
		c.addf(r, "network", c.net.Name,
			"add at least one process",
			"network %q has no processes; there is nothing to derive a task graph from", c.net.Name)
	}
}

// hbVerdict lazily runs the full determinism pipeline — derive, schedule
// at the assumed capacity, compile, verify — and caches the verdict. nil
// silently skips FPPN020: networks with error-severity problems other
// than FP-coverage gaps, frames beyond maxDeriveJobs or Options.MaxFrameJobs,
// and networks with no feasible schedule at the assumed capacity (an
// unschedulable model has no plan whose ordering could be verified).
// FP-coverage gaps themselves do NOT skip the rule: the pipeline derives
// with AllowUncoveredChannels so the verifier can exhibit the concrete
// unordered access pair the missing edge causes.
func (c *context) hbVerdict() *hb.Verdict {
	if c.hbTried {
		return c.hbVerd
	}
	c.hbTried = true
	uncovered := false
	for _, p := range c.coreProblems() {
		if p.Code != core.CodeFPCoverage {
			return nil
		}
		uncovered = true
	}
	if !c.derivable() {
		return nil
	}
	c.hbVerd = func() (v *hb.Verdict) {
		defer func() {
			if recover() != nil {
				v = nil
			}
		}()
		var tg *taskgraph.TaskGraph
		if uncovered {
			tg, _ = taskgraph.DeriveOpts(c.net, taskgraph.Options{AllowUncoveredChannels: true})
		} else {
			tg = c.taskGraph()
		}
		if tg == nil {
			return nil
		}
		s, err := sched.FindFeasible(tg, c.opts.Processors)
		if err != nil {
			return nil
		}
		p, err := plan.CompileOpts(s, plan.CompileOptions{AllowUncoveredChannels: uncovered})
		if err != nil {
			return nil
		}
		verdict := hb.Verify(p)
		return &verdict
	}()
	return c.hbVerd
}

// runHBUnordered warns when the happens-before verification of the
// compiled plan finds a conflicting access pair no synchronization
// orders: the plan executes, but the order of the witnessed accesses —
// and hence the observable results — can differ between runs. One
// finding, anchored at the witnessed resource, carrying the minimal
// witness pair.
func runHBUnordered(c *context, r Rule) {
	v := c.hbVerdict()
	if v == nil || v.RaceFree {
		return
	}
	w := v.Witness
	kind, subject := "process", strings.TrimPrefix(w.Resource, "process ")
	fix := "add the missing Priority edge so the derived precedence orders the accesses"
	if name, ok := strings.CutPrefix(w.Resource, "channel "); ok {
		kind, subject = "channel", name
		if s, ok := c.suggestionFor(name); ok {
			fix = fmt.Sprintf("add Priority(%q, %q)", s.Hi, s.Lo)
		}
	}
	c.addf(r, kind, subject, fix,
		"compiled plan is not race-free on %d processors: %d of %d conflicting access pairs are unordered; witness: %v",
		c.opts.Processors, v.Unordered, v.Pairs, *w)
}

// timing lazily lowers the network onto the integer timescale and
// returns taskgraph.LowerTiming's result: the timing of PN' in ticks, or
// the error when the timing does not fit.
func (c *context) timing() (*taskgraph.Timing, error) {
	if !c.timingTried {
		c.timingTried = true
		c.timingVal, c.timingErr = taskgraph.LowerTiming(c.net, rational.Zero)
	}
	return c.timingVal, c.timingErr
}

// derivable reports whether one frame of PN' — the network the task
// graph is derived from, server periods substituted — holds at most
// maxDeriveJobs and Options.MaxFrameJobs jobs. A count of the raw periods
// would undercount PN' when a sporadic process runs at a fractional
// server period, so the rules that derive the graph ask this.
func (c *context) derivable() bool {
	tm, err := c.timing()
	return err == nil && tm.Jobs <= maxDeriveJobs && tm.Jobs <= c.opts.MaxFrameJobs
}

// timingError is the error of timing, or nil when the timing fits.
func (c *context) timingError() error {
	_, err := c.timing()
	return err
}

// runTimescale reports timing that does not fit the integer timescale the
// compile pipeline computes on: taskgraph.Derive would reject the model
// with the same error. LowerTiming is O(processes), so the rule runs at
// every frame size; networks without a derived network PN' (FPPN004,
// FPPN001 periods) are left to the rules that already fired.
func runTimescale(c *context, r Rule) {
	var te *taskgraph.TimescaleError
	if !errors.As(c.timingError(), &te) {
		return
	}
	c.addf(r, te.Kind, te.Subject,
		"coarsen the timing so one tick divides every period, deadline and WCET and the hyperperiod spans at most 2^40 ticks",
		"%s; the compile pipeline computes on int64 ticks and rejects the model", te.Reason)
}

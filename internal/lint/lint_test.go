package lint

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/rational"
	"repro/internal/taskgraph"
)

// targets returns every example application and demo fixture by name.
func targets(t *testing.T) map[string]*core.Network {
	t.Helper()
	out := make(map[string]*core.Network)
	for _, name := range apps.Names() {
		net, err := apps.Build(name)
		if err != nil {
			t.Fatalf("apps.Build(%s): %v", name, err)
		}
		out[name] = net
	}
	for name, build := range Fixtures() {
		out[name] = build()
	}
	return out
}

// The paper's example applications must lint completely clean — the
// ISSUE's acceptance bar is zero error findings; we hold them to zero
// findings of any severity.
func TestExamplesClean(t *testing.T) {
	for _, name := range apps.Names() {
		net, err := apps.Build(name)
		if err != nil {
			t.Fatalf("apps.Build(%s): %v", name, err)
		}
		rep := Run(net, Options{})
		for _, f := range rep.Findings {
			t.Errorf("%s: unexpected finding: %s", name, f)
		}
	}
}

// Every registered diagnostic code must fire on at least one fixture, so
// each rule is demonstrably reachable from the command line.
func TestEveryCodeFires(t *testing.T) {
	fired := make(map[string]bool)
	for name, build := range Fixtures() {
		rep := Run(build(), Options{})
		for _, f := range rep.Findings {
			fired[f.Code] = true
			// FPPN012 is an error on frames Derive rejects.
			frameErr := f.Code == CodeHyperperiod && f.Severity == Error && overFrameLimit(build())
			if r, ok := RuleFor(f.Code); !ok {
				t.Errorf("%s: finding with unregistered code %s", name, f.Code)
			} else if r.Severity != f.Severity && !frameErr {
				t.Errorf("%s: %s severity %v, registry says %v", name, f.Code, f.Severity, r.Severity)
			}
		}
	}
	for _, r := range Rules {
		if !fired[r.Code] {
			t.Errorf("code %s (%s) fires on no fixture", r.Code, r.Title)
		}
	}
}

// The error-severity subset must coincide exactly with
// core.ValidateSchedulable plus the timescale and frame-size checks: same
// verdict on every target, every core error finding's message must appear
// in the joined validation error, FPPN021 must fire exactly when
// taskgraph.LowerTiming reports a timescale error, and FPPN012 is an error
// exactly when the frame is beyond taskgraph.MaxFrameJobs.
func TestErrorsMatchValidate(t *testing.T) {
	for name, net := range targets(t) {
		rep := Run(net, Options{})
		err := net.ValidateSchedulable()
		_, terr := taskgraph.LowerTiming(net, rational.Zero)
		var te *taskgraph.TimescaleError
		timescale := errors.As(terr, &te)
		frame := overFrameLimit(net)
		if rep.HasErrors() != (err != nil || timescale || frame) {
			t.Errorf("%s: HasErrors=%v but ValidateSchedulable=%v, LowerTiming=%v, frame beyond limit %v",
				name, rep.HasErrors(), err, terr, frame)
			continue
		}
		fired, frameFired := false, false
		for _, f := range rep.Errors() {
			if f.Code == CodeHyperperiod {
				frameFired = true
				continue
			}
			if f.Code == CodeTimescale {
				fired = true
				if f.Subject != te.Subject || !strings.Contains(f.Message, te.Reason) {
					t.Errorf("%s: FPPN021 finding %q does not carry the LowerTiming error %v", name, f.Message, terr)
				}
				continue
			}
			if err == nil || !strings.Contains(err.Error(), f.Message) {
				t.Errorf("%s: error finding %q missing from ValidateSchedulable: %v", name, f.Message, err)
			}
		}
		if fired != timescale {
			t.Errorf("%s: FPPN021 fired=%v, LowerTiming error %v", name, fired, terr)
		}
		if frameFired != frame {
			t.Errorf("%s: FPPN012 error fired=%v, frame beyond limit %v", name, frameFired, frame)
		}
	}
}

func TestSeverityConvention(t *testing.T) {
	for _, r := range Rules {
		// FPPN001..FPPN005 and the FPPN021 timescale check reject the
		// model in the compile pipeline; every other rule only warns.
		isError := r.Code <= CodeWCET || r.Code == CodeTimescale
		if isError && r.Severity != Error {
			t.Errorf("%s: rejecting rule has severity %v, want error", r.Code, r.Severity)
		}
		if !isError && r.Severity == Error {
			t.Errorf("%s: lint-only rule must not be error severity", r.Code)
		}
		if r.Title == "" || r.Ref == "" {
			t.Errorf("%s: registry entry missing title or paper reference", r.Code)
		}
		if r.run == nil {
			t.Errorf("%s: registry entry has no rule function", r.Code)
		}
	}
}

func TestSeverityText(t *testing.T) {
	for _, s := range []Severity{Info, Warning, Error} {
		var got Severity
		if err := got.UnmarshalText([]byte(s.String())); err != nil || got != s {
			t.Errorf("round trip %v: got %v, err %v", s, got, err)
		}
	}
	var s Severity
	if err := s.UnmarshalText([]byte("fatal")); err == nil {
		t.Error("unknown severity accepted")
	}
}

func TestRuleFor(t *testing.T) {
	if r, ok := RuleFor(CodeFPCoverage); !ok || r.Severity != Error {
		t.Errorf("RuleFor(FPPN003) = %+v, %v", r, ok)
	}
	if _, ok := RuleFor("FPPN999"); ok {
		t.Error("unknown code resolved")
	}
}

func TestTextRendering(t *testing.T) {
	rep := Run(BrokenTiming(), Options{})
	text := rep.Text()
	for _, want := range []string{"warning FPPN006", "error FPPN012", "fix:", "1 error(s), 7 warning(s)"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q:\n%s", want, text)
		}
	}
	net, err := apps.Build("signal")
	if err != nil {
		t.Fatal(err)
	}
	if clean := Run(net, Options{}).Text(); !strings.Contains(clean, "ok (0 findings)") {
		t.Errorf("clean Text() = %q", clean)
	}
}

// Lint runs must be byte-for-byte deterministic: the JSON form is golden-
// tested and map iteration anywhere in the rules would show up here.
func TestRunDeterministic(t *testing.T) {
	for name, net := range targets(t) {
		a, err := Run(net, Options{}).JSON()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := Run(net, Options{}).JSON()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a != b {
			t.Errorf("%s: two runs differ:\n%s\n---\n%s", name, a, b)
		}
	}
}

// Raising the capacity must silence the utilization rule. Broken-timing's
// frame of 24,945,752 jobs is beyond the derivation's limit, which no
// option raises: FPPN012 stays, as its only error.
func TestOptionThresholds(t *testing.T) {
	rep := Run(BrokenTiming(), Options{Processors: 4})
	for _, f := range rep.Findings {
		if f.Code == CodeUtilization || f.Code == CodeHyperperiod && f.Severity != Error {
			t.Errorf("threshold rule still fired: %s", f)
		}
	}
	errs := Run(BrokenTiming(), Options{Processors: 3}).atSeverity(Error)
	if len(errs) != 1 || errs[0].Code != CodeHyperperiod {
		t.Errorf("broken-timing errors %v, want only FPPN012's frame-size error", errs)
	}
}

// FPPN012 is an error exactly on frames taskgraph.Derive rejects: one job
// past taskgraph.MaxFrameJobs, and a warning at the limit itself.
func TestHyperperiodFrameLimit(t *testing.T) {
	for _, tc := range []struct {
		slow int64 // period of the slow process, in units of the fast one
		jobs int
		sev  Severity
	}{
		{taskgraph.MaxFrameJobs, taskgraph.MaxFrameJobs + 1, Error},
		{taskgraph.MaxFrameJobs - 1, taskgraph.MaxFrameJobs, Warning},
	} {
		// H = slow; the fast process runs slow times, the slow one once.
		net := core.NewNetwork("frame")
		net.AddPeriodic("fast", rational.FromInt(1), rational.FromInt(1), rational.New(1, 4), core.NopBehavior)
		net.AddPeriodic("slow", rational.FromInt(tc.slow), rational.FromInt(tc.slow), rational.New(1, 4), core.NopBehavior)
		net.Output("fast", "OUT_fast")
		net.Output("slow", "OUT_slow")
		if tm, err := taskgraph.LowerTiming(net, rational.Zero); err != nil || tm.Jobs != tc.jobs {
			t.Fatalf("LowerTiming: %v jobs, %v; want %d", tm, err, tc.jobs)
		}
		var got []Finding
		for _, f := range Run(net, Options{}).Findings {
			if f.Code == CodeHyperperiod {
				got = append(got, f)
			}
		}
		if len(got) != 1 || got[0].Severity != tc.sev {
			t.Errorf("%d jobs: FPPN012 findings %v, want one at severity %v", tc.jobs, got, tc.sev)
		}
		// Derive fails fast past the limit; at it, it would expand the
		// whole frame, so it is left out.
		if tc.sev == Error {
			if _, err := taskgraph.Derive(net); err == nil {
				t.Errorf("%d jobs: Derive accepted a frame FPPN012 rejects", tc.jobs)
			}
		}
	}
}

// Periods whose frame does not fit int64 — an LCM past int64, or a
// representable LCM whose job count is not — give FPPN012's overflow
// finding instead of a panic.
func TestHyperperiodOverflow(t *testing.T) {
	const overflow = "hyperperiod of the process periods overflows exact rational arithmetic; the periods are severely non-harmonic"
	type proc struct {
		burst  int
		period rational.Rat
	}
	for _, tc := range []struct {
		name  string
		procs []proc
		want  string
	}{
		// 2^31 − 1, 2^31 and 2^31 + 1 are pairwise coprime: H ≈ 2^93.
		{"lcm", []proc{{1, rational.FromInt(1<<31 - 1)}, {1, rational.FromInt(1 << 31)}, {1, rational.FromInt(1<<31 + 1)}}, overflow},
		// H = 2^31 holds 2^62 bursts of 2 jobs of the fast process.
		{"jobs", []proc{{1, rational.FromInt(1 << 31)}, {2, rational.New(1, 1<<31)}}, overflow},
		// H = 2^40 and the job count fit, but comparing the two periods
		// by cross-multiplication would need 2^40·(2^24+1) ≈ 2^64.
		{"ratio", []proc{{1, rational.New(1<<40, 3)}, {1, rational.New(1<<40, 1<<24+1)}},
			"hyperperiod 1099511627776s spans 16777220 jobs per frame (H/min-period = 16777217); non-harmonic periods blow the task graph up"},
	} {
		net := core.NewNetwork(tc.name)
		// Quarter-period WCETs keep every other rule's sums representable.
		for i, p := range tc.procs {
			net.AddMultiPeriodic(string(rune('a'+i)), p.burst, p.period, p.period, p.period.DivInt(4), core.NopBehavior)
		}
		var msgs []string
		for _, f := range Run(net, Options{}).Findings {
			if f.Code == CodeHyperperiod {
				msgs = append(msgs, f.Message)
			}
		}
		if len(msgs) != 1 || msgs[0] != tc.want {
			t.Errorf("%s: FPPN012 findings %q, want one %q", tc.name, msgs, tc.want)
		}
	}
}

// TestServerDeadlineOverflow: FPPN006 stays a finding, not a panic, when
// d − T_u or the fractional server period T_u/q does not fit int64; the
// message then omits the value that does not fit.
func TestServerDeadlineOverflow(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tu, d rational.Rat
		want  string
	}{
		{"fits", rational.New(2, 5), rational.New(3, 10),
			`sporadic "s": corrected server deadline d−T_u = -1/10s is not positive (d=3/10s, user "u" period 2/5s); derivation falls back to fractional server period T_u/2 = 1/5s`},
		// d − T_u needs the denominator 3·(2^24+1) and a numerator of
		// about 2^64.
		{"difference", rational.New(1<<40, 3), rational.New(1<<40, 1<<24+1),
			`sporadic "s": corrected server deadline d−T_u is not positive (d=1099511627776/16777217s, user "u" period 1099511627776/3s); derivation falls back to fractional server period T_u/5592406 = 549755813888/8388609s`},
		// q = 2^80 + 1.
		{"fraction", rational.FromInt(1 << 40), rational.New(1, 1<<40),
			`sporadic "s": corrected server deadline d−T_u is not positive (d=1/1099511627776s, user "u" period 1099511627776s); no fractional server period T_u/q fits int64`},
	} {
		net := core.NewNetwork(tc.name)
		// Quarter-period WCETs keep every other rule's sums representable.
		net.AddPeriodic("u", tc.tu, tc.tu, tc.tu.DivInt(4), core.NopBehavior)
		net.AddSporadic("s", 1, tc.tu, tc.d, tc.tu.DivInt(4), core.NopBehavior)
		net.ConnectInit("s", "u", "c", 0)
		net.Priority("s", "u")
		var msgs []string
		for _, f := range Run(net, Options{}).Findings {
			if f.Code == CodeServerDeadline {
				msgs = append(msgs, f.Message)
			}
		}
		if len(msgs) != 1 || msgs[0] != tc.want {
			t.Errorf("%s: FPPN006 findings %q, want one %q", tc.name, msgs, tc.want)
		}
	}
}

// TestUtilizationOverflow: FPPN008 sums the frame's WCET volume in ticks
// and never panics. With user period 366503875925 s and sporadic deadline
// 2^40/(2^24+1) s the timing does not fit the integer timescale, so
// FPPN021 fires and FPPN008 is skipped. Two processes with bursts of 2^62
// unit jobs per unit period put 2^63 ticks of work in a one-tick frame,
// past int64, and FPPN008 still reports the load.
func TestUtilizationOverflow(t *testing.T) {
	tu, d := rational.FromInt(366503875925), rational.New(1<<40, 1<<24+1)
	timescale := core.NewNetwork("timescale")
	timescale.AddPeriodic("u", tu, tu, tu.DivInt(4), core.NopBehavior)
	timescale.AddSporadic("s", 1, tu, d, d.DivInt(4), core.NopBehavior)
	timescale.ConnectInit("s", "u", "c", 0)
	timescale.Priority("s", "u")

	one := rational.One
	volume := core.NewNetwork("volume")
	volume.AddMultiPeriodic("a", 1<<62, one, one, one, core.NopBehavior)
	volume.AddMultiPeriodic("b", 1<<62, one, one, one, core.NopBehavior)
	volume.Priority("a", "b")

	for _, tc := range []struct {
		net       *core.Network
		timescale bool
		want      []string
	}{
		{timescale, true, nil},
		{volume, false, []string{"total utilization 9223372036854775808.000 exceeds the capacity of 2 processor(s); no feasible schedule exists"}},
	} {
		var got []string
		fired := false
		for _, f := range Run(tc.net, Options{}).Findings {
			switch f.Code {
			case CodeTimescale:
				fired = true
			case CodeUtilization:
				got = append(got, f.Message)
			}
		}
		if fired != tc.timescale {
			t.Errorf("%s: FPPN021 fired %v, want %v", tc.net.Name, fired, tc.timescale)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: FPPN008 findings %q, want %q", tc.net.Name, got, tc.want)
		}
	}
}

// Check reads the caller's artifacts rather than computing them: a planted
// racy verdict on signal, where every real plan is race-free, must
// surface as FPPN020 with its witness. On fms, whose frame is beyond
// maxDeriveJobs, lint's gate skips FPPN020 before reading the verdict.
func TestCheckReadsArtifacts(t *testing.T) {
	racy := func(net *core.Network) (*hb.Verdict, []Finding) {
		ch := net.Channels()[0]
		w := &hb.Witness{Resource: "channel " + ch.Name,
			A: hb.Access{Name: ch.Writer + "[0]", Op: "writes"},
			B: hb.Access{Name: ch.Reader + "[0]", Op: "reads", Proc: 1}}
		v := &hb.Verdict{Witness: w, Unordered: 1, Pairs: 1}
		var got []Finding
		for _, f := range Check(net, Artifacts{HB: v}, Options{}).Findings {
			if f.Code == CodeHBUnordered {
				got = append(got, f)
			}
		}
		return v, got
	}
	signal, err := apps.Build("signal")
	if err != nil {
		t.Fatal(err)
	}
	v, got := racy(signal)
	if len(got) != 1 || got[0].Subject != signal.Channels()[0].Name || !strings.Contains(got[0].Message, v.Witness.String()) {
		t.Fatalf("signal: FPPN020 findings %v, want one carrying %v", got, *v.Witness)
	}
	if clean := Run(signal, Options{}); slices.ContainsFunc(clean.Findings, func(f Finding) bool { return f.Code == CodeHBUnordered }) {
		t.Fatalf("signal's own plan is not race-free: %v", clean.Findings)
	}
	fms, err := apps.Build("fms")
	if err != nil {
		t.Fatal(err)
	}
	if _, got := racy(fms); len(got) != 0 {
		t.Fatalf("fms: the derive gate did not skip the planted verdict: %v", got)
	}
}

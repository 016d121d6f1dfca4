// Package lint is the structured-diagnostics engine over FPPN models: a
// vet pass for the compile pipeline. It re-expresses the hard
// well-formedness and schedulability rules of internal/core (Definition
// 2.1, Proposition 2.1, Section III-A of the DATE 2015 paper) as
// error-severity findings, and layers warning-severity rules on top —
// conditions under which the model is still valid and deterministic but a
// schedule is unlikely to exist, data is unobservable, or the derived task
// graph blows up.
//
// The error-severity subset is core.Validate + ValidateSchedulable — both
// thin adapters over core's structured problem lists, which this package
// converts one-to-one into findings — plus FPPN021, the timescale check of
// taskgraph.LowerTiming. A network with zero error-severity findings
// therefore always passes ValidateSchedulable and derives a task graph:
// FPPN012, a warning otherwise, is an error on frames of more than
// taskgraph.MaxFrameJobs = 2^20 jobs, which Derive rejects.
package lint

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/feas"
	"repro/internal/hb"
	"repro/internal/staticflow"
	"repro/internal/taskgraph"
)

// Severity ranks findings. Higher is worse.
type Severity int

const (
	// Info marks observations with no action required.
	Info Severity = iota
	// Warning marks conditions that compile but deserve attention.
	Warning
	// Error marks violations of the model's hard preconditions; fppnc
	// refuses to compile on them unless -vet=off.
	Error
)

// String returns "info", "warning" or "error".
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// MarshalText encodes the severity as its lower-case name.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText decodes a lower-case severity name.
func (s *Severity) UnmarshalText(text []byte) error {
	switch string(text) {
	case "info":
		*s = Info
	case "warning":
		*s = Warning
	case "error":
		*s = Error
	default:
		return fmt.Errorf("lint: unknown severity %q", text)
	}
	return nil
}

// Finding is one structured diagnostic.
type Finding struct {
	// Code is the FPPN0xx diagnostic code (see Rules).
	Code string `json:"code"`
	// Severity is error, warning or info.
	Severity Severity `json:"severity"`
	// SubjectKind is "network", "process" or "channel".
	SubjectKind string `json:"subjectKind"`
	// Subject names the offending model element.
	Subject string `json:"subject"`
	// Message describes the finding.
	Message string `json:"message"`
	// Fix optionally suggests a remedy.
	Fix string `json:"fix,omitempty"`
}

// String renders the finding as one line, e.g.
// "error FPPN003 channel \"x\": no functional priority ...".
func (f Finding) String() string {
	return fmt.Sprintf("%s %s %s %q: %s", f.Severity, f.Code, f.SubjectKind, f.Subject, f.Message)
}

// Report is the outcome of one lint run.
type Report struct {
	// Network is the name of the linted network.
	Network string `json:"network"`
	// Processors is the capacity assumption used by the utilization rule.
	Processors int `json:"processors"`
	// Findings lists all diagnostics in rule order (FPPN001 first);
	// within one rule the order follows the network's deterministic
	// process/channel insertion order.
	Findings []Finding `json:"findings"`
}

// Errors returns the error-severity findings.
func (r *Report) Errors() []Finding { return r.atSeverity(Error) }

// Warnings returns the warning-severity findings.
func (r *Report) Warnings() []Finding { return r.atSeverity(Warning) }

func (r *Report) atSeverity(s Severity) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Severity == s {
			out = append(out, f)
		}
	}
	return out
}

// HasErrors reports whether any error-severity finding is present.
func (r *Report) HasErrors() bool { return len(r.Errors()) > 0 }

// Text renders the report in the conventional one-line-per-finding form,
// ending with a summary line. A clean report renders as a single "ok" line.
func (r *Report) Text() string {
	var b strings.Builder
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "%s: %s\n", r.Network, f)
		if f.Fix != "" {
			fmt.Fprintf(&b, "\tfix: %s\n", f.Fix)
		}
	}
	ne, nw := len(r.Errors()), len(r.Warnings())
	ni := len(r.Findings) - ne - nw
	if len(r.Findings) == 0 {
		fmt.Fprintf(&b, "%s: ok (0 findings)\n", r.Network)
	} else {
		fmt.Fprintf(&b, "%s: %d error(s), %d warning(s), %d info\n", r.Network, ne, nw, ni)
	}
	return b.String()
}

// JSON renders the report as stable, indented JSON (the fppnvet -json
// format, byte-compared by the golden tests).
func (r *Report) JSON() (string, error) {
	text, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return string(text) + "\n", nil
}

// Options tunes the warning rules.
type Options struct {
	// Processors is the platform capacity assumed by the utilization
	// rule FPPN008 (default 2, matching the CLIs' -m default).
	Processors int
}

func (o Options) withDefaults() Options {
	if o.Processors == 0 {
		o.Processors = 2
	}
	return o
}

// The budgets of the threshold rules: FPPN012 fires on frames of more than
// maxFrameJobs jobs (the paper's reduced FMS has 812), which also bounds
// the buffer sweep behind FPPN014/FPPN017, or with H over the smallest
// period above maxPeriodRatio (reduced FMS: 50); FPPN017 on static FIFO
// high-water bounds above maxBufferHighWater.
const (
	maxFrameJobs       = 10000
	maxPeriodRatio     = 1000
	maxBufferHighWater = 256
)

// Artifacts are a caller's results on the linted network at
// Options.Processors, which Check reads instead of computing them again;
// a nil field is computed by lint itself. Each rule applies its own gates
// before reading an artifact, so Check finds exactly what Run finds.
type Artifacts struct {
	TG   *taskgraph.TaskGraph // taskgraph.Derive(net)
	Feas *feas.Report         // feas.Analyze(TG, Processors, feas.Options{})
	HB   *hb.Verdict          // hb.Verify of a plan scheduled from TG on Processors
}

// Rule describes one diagnostic: its code, fixed severity, short title and
// the paper reference it enforces. The registry drives Run, the
// documentation table in DESIGN.md, and the fixture-coverage test.
type Rule struct {
	Code     string
	Severity Severity
	Title    string
	Ref      string
	run      func(*context, Rule)
}

// context carries one lint run's state through the rules.
type context struct {
	net  *core.Network
	opts Options
	art  Artifacts // the caller's results, read by the gated rules
	out  []Finding

	problems   []core.Problem  // cached core problem lists (error rules)
	netProbs   int             // length of the net.Problems() prefix
	observable map[string]bool // cached external-output reachability

	bufferTried   bool                      // static buffer sweep attempted
	bufferProfile *staticflow.BufferProfile // nil when skipped or failed
	suggestTried  bool                      // FP completion computed
	suggest       []staticflow.Suggestion
	tgTried       bool                 // task graph derived
	tg            *taskgraph.TaskGraph // nil when the derivation failed
	feasTried     bool                 // schedulability suite attempted
	feasRep       *feas.Report         // nil when skipped or failed
	hbTried       bool                 // happens-before verification attempted
	hbVerd        *hb.Verdict          // nil when skipped or failed
	timingTried   bool                 // integer timescale lowered
	timingVal     *taskgraph.Timing    // taskgraph.LowerTiming's result, or nil
	timingErr     error                // taskgraph.LowerTiming's error, or nil
}

func (c *context) addf(r Rule, subjectKind, subject, fix, format string, args ...any) {
	c.out = append(c.out, Finding{
		Code:        r.Code,
		Severity:    r.Severity,
		SubjectKind: subjectKind,
		Subject:     subject,
		Message:     fmt.Sprintf(format, args...),
		Fix:         fix,
	})
}

// Check lints the network, reading the caller's artifacts where a rule
// needs them, and returns the structured report. It never panics, even on
// malformed networks (overflow in the exact arithmetic of the hyperperiod
// rule is caught and reported as a finding).
func Check(net *core.Network, art Artifacts, opts Options) *Report {
	opts = opts.withDefaults()
	c := &context{net: net, opts: opts, art: art}
	for _, r := range Rules {
		r.run(c, r)
	}
	return &Report{Network: net.Name, Processors: opts.Processors, Findings: c.out}
}

// Run lints the network, computing every artifact itself: Check with no
// caller artifacts.
func Run(net *core.Network, opts Options) *Report {
	return Check(net, Artifacts{}, opts)
}

// RuleFor returns the registry entry for a diagnostic code.
func RuleFor(code string) (Rule, bool) {
	for _, r := range Rules {
		if r.Code == code {
			return r, true
		}
	}
	return Rule{}, false
}

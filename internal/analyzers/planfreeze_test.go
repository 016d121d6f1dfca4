package analyzers

import (
	"strings"
	"testing"
)

// planModule lays out a minimal fixture module with a Plan type, its
// compile entry point, and the given extra source in internal/plan.
func planModule(extra string) map[string]string {
	return map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"internal/plan/plan.go": `package plan

type Plan struct {
	frames int
	cap    map[string]int
}

func Compile() *Plan {
	p := &Plan{cap: make(map[string]int)}
	p.frames = 1
	fill(p)
	return p
}

func fill(p *Plan) {
	p.cap["x"] = 1
}
` + extra,
	}
}

// The compile pipeline itself — the entry point's writes to its locally
// created value and the helper only it reaches — is exempt.
func TestPlanFreezeCompilePipelineExempt(t *testing.T) {
	if diags := only(checkAll(t, planModule("")), "planfreeze"); len(diags) != 0 {
		t.Fatalf("compile pipeline flagged:\n%s", messages(diags))
	}
}

// A method mutating its Plan receiver outside the pipeline is the
// defining violation: per-run state cached on the shared artifact.
func TestPlanFreezeFlagsReceiverWrite(t *testing.T) {
	diags := only(checkAll(t, planModule(`
func (p *Plan) Run() {
	p.frames++
}
`)), "planfreeze")
	if len(diags) != 1 {
		t.Fatalf("want one planfreeze diagnostic, got:\n%s", messages(diags))
	}
	for _, want := range []string{"p.frames", "plan.Plan", "plan.Plan.Run"} {
		if !strings.Contains(diags[0].Message, want) {
			t.Errorf("diagnostic missing %q: %s", want, diags[0].Message)
		}
	}
}

// A helper that writes through its Plan parameter is flagged when an
// exported non-compile function reaches it, with the call path.
func TestPlanFreezeHelperCallPath(t *testing.T) {
	diags := only(checkAll(t, planModule(`
func Reset(p *Plan) {
	scrub(p)
}

func scrub(p *Plan) {
	p.cap["x"] = 0
}
`)), "planfreeze")
	if len(diags) != 1 {
		t.Fatalf("want one planfreeze diagnostic, got:\n%s", messages(diags))
	}
	for _, want := range []string{`p.cap[…]`, "plan.Reset → plan.scrub"} {
		if !strings.Contains(diags[0].Message, want) {
			t.Errorf("diagnostic missing %q: %s", want, diags[0].Message)
		}
	}
}

// Writes to a locally created Plan are construction, not mutation of a
// shared artifact — exempt even outside the compile pipeline. Rebinding
// the parameter variable itself does not touch the artifact either.
func TestPlanFreezeLocalAndRebindExempt(t *testing.T) {
	diags := only(checkAll(t, planModule(`
func Scratch() *Plan {
	q := &Plan{}
	q.frames = 3
	return q
}

func Drop(p *Plan) {
	p = nil
	_ = p
}

func Shadow(p *Plan) {
	p := &Plan{} // fppnlint:ignore -- shadow on purpose
	p.frames = 2
	_ = p
}
`)), "planfreeze")
	if len(diags) != 0 {
		t.Fatalf("construction writes flagged:\n%s", messages(diags))
	}
}

// Cross-package: a function taking *core.CompiledNet through an import
// is flagged with the imported type's label.
func TestPlanFreezeCrossPackageCompiledNet(t *testing.T) {
	diags := only(checkAll(t, map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"internal/core/compiled.go": `package core

type CompiledNet struct {
	Hyper int
}

func CompileNetwork() *CompiledNet {
	cn := &CompiledNet{}
	cn.Hyper = 7
	return cn
}
`,
		"internal/rt/rt.go": `package rt

import "fixture/internal/core"

func Patch(cn *core.CompiledNet) {
	cn.Hyper = 0
}
`,
	}), "planfreeze")
	if len(diags) != 1 {
		t.Fatalf("want one planfreeze diagnostic, got:\n%s", messages(diags))
	}
	for _, want := range []string{"cn.Hyper", "core.CompiledNet", "rt.Patch"} {
		if !strings.Contains(diags[0].Message, want) {
			t.Errorf("diagnostic missing %q: %s", want, diags[0].Message)
		}
	}
}

// An fppnlint:ignore comment on the write suppresses the finding.
func TestPlanFreezeSuppression(t *testing.T) {
	diags := only(checkAll(t, planModule(`
func (p *Plan) Tune() {
	p.frames = 9 // fppnlint:ignore -- audited single-owner mutation
}
`)), "planfreeze")
	if len(diags) != 0 {
		t.Fatalf("fppnlint:ignore not honoured:\n%s", messages(diags))
	}
}

// runStateModule lays out a fixture with a Plan, its compile entry, and a
// RunState retaining the plan reference, plus the given extra source.
func runStateModule(extra string) map[string]string {
	return map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"internal/plan/plan.go": `package plan

type Schedule struct{}

type Plan struct {
	S     *Schedule
	table []int
}

func Compile() *Plan {
	p := &Plan{S: &Schedule{}, table: make([]int, 4)}
	return p
}

type Report struct {
	Schedule *Schedule
	buf      []int
}

type RunState struct {
	p       *Plan
	scratch []int
	report  Report
}

func (p *Plan) NewRunState() *RunState { return &RunState{p: p} }
` + extra,
	}
}

// A RunState field assignment whose value selects into the Plan retains a
// pointer into Plan-owned memory — the new aliasing class of violation.
func TestPlanFreezeFlagsRunStateAlias(t *testing.T) {
	diags := only(checkAll(t, runStateModule(`
func (rs *RunState) Warm() {
	rs.scratch = rs.p.table
}
`)), "planfreeze")
	if len(diags) != 1 {
		t.Fatalf("want one planfreeze diagnostic, got:\n%s", messages(diags))
	}
	for _, want := range []string{"rs.scratch", "rs.p.table", "plan.Plan", "retains"} {
		if !strings.Contains(diags[0].Message, want) {
			t.Errorf("diagnostic missing %q: %s", want, diags[0].Message)
		}
	}
}

// The alias is also caught through the idiomatic local plan binding, and a
// mutation through that local is flagged as a frozen write.
func TestPlanFreezeRunStateLocalPlanAlias(t *testing.T) {
	diags := only(checkAll(t, runStateModule(`
func (rs *RunState) Prep() {
	p := rs.p
	rs.scratch = p.table[:0]
}

func (rs *RunState) Poke() {
	p := rs.p
	p.table[0] = 1
}
`)), "planfreeze")
	if len(diags) != 2 {
		t.Fatalf("want two planfreeze diagnostics, got:\n%s", messages(diags))
	}
	joined := messages(diags)
	for _, want := range []string{"rs.scratch retains p.table", "p.table[…]", "mutates"} {
		if !strings.Contains(joined, want) {
			t.Errorf("diagnostics missing %q:\n%s", want, joined)
		}
	}
}

// Storing the bare plan reference (the Reset pattern) and recycling the
// RunState's own arenas are the designed pooling idioms — exempt.
func TestPlanFreezeRunStateOwnershipExempt(t *testing.T) {
	diags := only(checkAll(t, runStateModule(`
func (rs *RunState) Reset() {
	*rs = RunState{p: rs.p}
}

func (rs *RunState) Shrink() {
	rs.scratch = rs.scratch[:0]
}
`)), "planfreeze")
	if len(diags) != 0 {
		t.Fatalf("ownership link or arena recycling flagged:\n%s", messages(diags))
	}
}

// A store into the RunState's report gets one verdict whether it is
// written directly or through a local bound to the report's address.
// Keeping the plan's schedule pointer is an ownership link (exempt in
// both forms); keeping a slice of the plan's table is retention (flagged
// through the alias too).
func TestPlanFreezeRunStateFieldAddressAlias(t *testing.T) {
	diags := only(checkAll(t, runStateModule(`
func (rs *RunState) OpenDirect() {
	rs.report = Report{Schedule: rs.p.S}
}

func (rs *RunState) OpenAliased() *Report {
	r := &rs.report
	*r = Report{Schedule: rs.p.S, buf: rs.scratch[:0]}
	return r
}

func (rs *RunState) Retain() {
	r := &rs.report
	r.buf = rs.p.table[:0]
}
`)), "planfreeze")
	if len(diags) != 1 {
		t.Fatalf("want one planfreeze diagnostic, got:\n%s", messages(diags))
	}
	for _, want := range []string{"r.buf", "rs.p.table", "plan.Plan", "retains"} {
		if !strings.Contains(diags[0].Message, want) {
			t.Errorf("diagnostic missing %q: %s", want, diags[0].Message)
		}
	}
}

// A field of the plan other than its schedule link is still retention
// when stored directly.
func TestPlanFreezeRunStateDirectTableStillFlagged(t *testing.T) {
	diags := only(checkAll(t, runStateModule(`
func (rs *RunState) Open() {
	rs.report = Report{Schedule: rs.p.S, buf: rs.p.table}
}
`)), "planfreeze")
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "rs.p.table") {
		t.Fatalf("want one diagnostic naming rs.p.table, got:\n%s", messages(diags))
	}
}

// The real repository must be planfreeze-clean: the RunState split moved
// every per-run write off the compiled artifacts. (CheckAll over the
// repo root is exercised by TestJobReachRepositoryClean; this test pins
// the planfreeze subset explicitly so a regression names the analyzer.)
func TestPlanFreezeRepositoryClean(t *testing.T) {
	diags, err := CheckAll("../..")
	if err != nil {
		t.Fatal(err)
	}
	if diags = only(diags, "planfreeze"); len(diags) != 0 {
		t.Fatalf("repository mutates compiled artifacts:\n%s", messages(diags))
	}
}

package analyzers

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write lays out a synthetic module tree and returns its root.
func write(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for path, src := range files {
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func check(t *testing.T, files map[string]string) []Diagnostic {
	t.Helper()
	diags, err := Check(write(t, files), All)
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

func messages(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	return b.String()
}

func TestNoClockFlagsDeterministicPackages(t *testing.T) {
	diags := check(t, map[string]string{
		"internal/core/bad.go": `package core

import (
	"math/rand"
	"time"
)

func now() int64 { return time.Now().UnixNano() + int64(rand.Intn(3)) }
`,
	})
	if len(diags) != 2 {
		t.Fatalf("want 2 diagnostics (math/rand import, time.Now call), got:\n%s", messages(diags))
	}
	for _, want := range []string{"math/rand", "time.Now"} {
		if !strings.Contains(messages(diags), want) {
			t.Errorf("missing %q in:\n%s", want, messages(diags))
		}
	}
}

func TestNoClockIgnoresOtherPackagesAndDurations(t *testing.T) {
	diags := check(t, map[string]string{
		// Same sins outside the deterministic packages: allowed.
		"internal/export/ok.go": `package export

import "time"

func now() time.Time { return time.Now() }
`,
		// Duration arithmetic inside a deterministic package: allowed.
		"internal/sched/ok.go": `package sched

import "time"

const tick = 10 * time.Millisecond

func parse(s string) (time.Duration, error) { return time.ParseDuration(s) }
`,
	})
	if len(diags) != 0 {
		t.Fatalf("unexpected diagnostics:\n%s", messages(diags))
	}
}

func TestNoClockHonoursImportAlias(t *testing.T) {
	diags := check(t, map[string]string{
		"internal/rational/bad.go": `package rational

import clock "time"

func now() clock.Time { return clock.Now() }
`,
	})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "clock.Now") {
		t.Fatalf("want one clock.Now diagnostic, got:\n%s", messages(diags))
	}
}

func TestMapOrderFlagsUnsortedCollect(t *testing.T) {
	diags := check(t, map[string]string{
		"pkg/bad.go": `package pkg

func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`,
	})
	if len(diags) != 1 || diags[0].Analyzer != "maporder" {
		t.Fatalf("want one maporder diagnostic, got:\n%s", messages(diags))
	}
}

func TestMapOrderAllowsSortedCollect(t *testing.T) {
	diags := check(t, map[string]string{
		"pkg/ok.go": `package pkg

import "sort"

func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}
`,
	})
	if len(diags) != 0 {
		t.Fatalf("unexpected diagnostics:\n%s", messages(diags))
	}
}

func TestMapOrderSeesFieldsMakesAndNestedMaps(t *testing.T) {
	diags := check(t, map[string]string{
		"pkg/bad.go": `package pkg

type net struct {
	fp map[string]map[string]bool
}

func (n *net) lows(p string) []string {
	var out []string
	for lo := range n.fp[p] {
		out = append(out, lo)
	}
	return out
}

func local() []int {
	m := make(map[int]bool)
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}
`,
	})
	if len(diags) != 2 {
		t.Fatalf("want 2 maporder diagnostics, got:\n%s", messages(diags))
	}
}

func TestNakedGoOutsideConcurrencyLayers(t *testing.T) {
	worker := `package p

func spawn() {
	go func() {}()
}
`
	diags := check(t, map[string]string{
		"internal/sched/bad.go":   "package sched\n\nfunc spawn() {\n\tgo func() {}()\n}\n",
		"internal/parallel/ok.go": worker,
		"internal/plan/ok.go":     worker,
		// The serving layer is on the allowlist: its request-level
		// concurrency is pinned by the serve differential harness.
		"internal/serve/ok.go": worker,
		"cmd/fppnd/ok.go":      worker,
		"cmd/fppnload/ok.go":   worker,
	})
	if len(diags) != 1 || diags[0].Analyzer != "nakedgo" {
		t.Fatalf("want one nakedgo diagnostic, got:\n%s", messages(diags))
	}
	if !strings.Contains(diags[0].Position.Filename, "sched") {
		t.Errorf("diagnostic in wrong file: %v", diags[0])
	}
}

func TestSuppressionComment(t *testing.T) {
	diags := check(t, map[string]string{
		"pkg/ok.go": `package pkg

func spawnTrailing() {
	go func() {}() // fppnlint:ignore -- test helper, order-independent
}

func spawnAbove() {
	// fppnlint:ignore -- test helper, order-independent
	go func() {}()
}

func spawnCaught() {
	go func() {}()
}
`,
	})
	if len(diags) != 1 {
		t.Fatalf("want exactly the unsuppressed diagnostic, got:\n%s", messages(diags))
	}
}

func TestSkipsTestFilesAndTestdata(t *testing.T) {
	diags := check(t, map[string]string{
		"internal/core/x_test.go":       "package core\n\nimport \"math/rand\"\n\nvar _ = rand.Int\n",
		"pkg/testdata/bad.go":           "package bad\n\nfunc f() { go func() {}() }\n",
		"internal/core/testdata/bad.go": "package bad\n\nimport \"math/rand\"\n\nvar _ = rand.Int\n",
	})
	if len(diags) != 0 {
		t.Fatalf("test files and testdata must be skipped, got:\n%s", messages(diags))
	}
}

// Suppression must behave identically for every analyzer, per-directory
// and module-wide alike: one fppnlint:ignore covers its own line and the
// next, a comment anywhere else does not, and a single comment silences
// every analyzer that fires on the covered line.
func TestSuppressionAcrossAnalyzers(t *testing.T) {
	// One go statement inside a Step method in internal/apps fires two
	// analyzers at the same position (nakedgo syntactically, jobreach
	// through the call graph); one trailing comment suppresses both.
	multi := func(marker string) map[string]string {
		return map[string]string{
			"go.mod": "module fixture\n\ngo 1.22\n",
			"internal/apps/demo/demo.go": `package demo

type W struct{}

func (W) Step() error {
	go func() {}() ` + marker + `
	return nil
}
`,
		}
	}
	if diags := checkAll(t, multi("")); len(diags) != 2 {
		t.Fatalf("want nakedgo + jobreach on the bare line, got:\n%s", messages(diags))
	}
	if diags := checkAll(t, multi("// fppnlint:ignore -- audited")); len(diags) != 0 {
		t.Fatalf("one comment must silence every analyzer on the line, got:\n%s", messages(diags))
	}

	// A comment that is neither on the finding's line nor the line above
	// suppresses nothing.
	wrongLine := checkAll(t, map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"internal/apps/demo/demo.go": `package demo

// fppnlint:ignore -- too far away to matter

type W struct{}

func (W) Step() error {
	go func() {}()
	return nil
}
`,
	})
	if len(wrongLine) != 2 {
		t.Fatalf("distant comment must not suppress, got:\n%s", messages(wrongLine))
	}

	// Per-analyzer suppressed-finding coverage: each analyzer's defining
	// violation with the marker on (or above) the offending line.
	cases := map[string]map[string]string{
		"noclock": {
			"internal/core/x.go": "package core\n\nimport \"time\"\n\nfunc f() int64 {\n\treturn time.Now().Unix() // fppnlint:ignore -- frozen test stamp\n}\n",
		},
		"maporder": {
			"internal/core/x.go": "package core\n\nfunc f(m map[string]int) []string {\n\tvar out []string\n\t// fppnlint:ignore -- order rechecked downstream\n\tfor k := range m {\n\t\tout = append(out, k)\n\t}\n\treturn out\n}\n",
		},
		"nakedgo": {
			"internal/sched/x.go": "package sched\n\nfunc f() {\n\tgo func() {}() // fppnlint:ignore -- audited\n}\n",
		},
		"jobreach": {
			"go.mod":                     "module fixture\n\ngo 1.22\n",
			"internal/apps/demo/demo.go": "package demo\n\nimport \"time\"\n\ntype W struct{}\n\nfunc (W) Step() error {\n\t_ = time.Now() // fppnlint:ignore -- audited\n\treturn nil\n}\n",
		},
		"planfreeze": {
			"go.mod":                "module fixture\n\ngo 1.22\n",
			"internal/plan/plan.go": "package plan\n\ntype Plan struct{ n int }\n\nfunc (p *Plan) Bump() {\n\tp.n++ // fppnlint:ignore -- audited\n}\n",
		},
	}
	for name, files := range cases {
		if diags := only(checkAll(t, files), name); len(diags) != 0 {
			t.Errorf("%s: suppressed finding still reported:\n%s", name, messages(diags))
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analyzers"
)

// The repository itself must be clean under its own analyzers.
func TestRepositoryIsClean(t *testing.T) {
	var out bytes.Buffer
	status, err := run(&out, filepath.Join("..", ".."), formatText)
	if err != nil {
		t.Fatal(err)
	}
	if status != exitClean {
		t.Fatalf("repository has determinism lint diagnostics:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "0 diagnostic(s)") {
		t.Errorf("summary line missing:\n%s", out.String())
	}
}

func TestDiagnosticsAndJSON(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "core")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package core\n\nimport \"time\"\n\nfunc now() time.Time { return time.Now() }\n"
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	status, err := run(&out, root, formatText)
	if err != nil || status != exitDiagnostics {
		t.Fatalf("status %d, err %v:\n%s", status, err, out.String())
	}
	if !strings.Contains(out.String(), "noclock") || !strings.Contains(out.String(), "1 diagnostic(s)") {
		t.Errorf("text output:\n%s", out.String())
	}

	out.Reset()
	if status, err := run(&out, root, formatJSON); err != nil || status != exitDiagnostics {
		t.Fatalf("json: status %d, err %v", status, err)
	}
	var diags []analyzers.Diagnostic
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("bad JSON: %v:\n%s", err, out.String())
	}
	if len(diags) != 1 || diags[0].Analyzer != "noclock" {
		t.Errorf("decoded %+v", diags)
	}
}

func TestBadRoot(t *testing.T) {
	if status, err := run(&bytes.Buffer{}, filepath.Join(t.TempDir(), "missing"), formatText); err == nil || status != exitUsage {
		t.Errorf("missing root: status %d, err %v", status, err)
	}
}

var update = flag.Bool("update", false, "rewrite the golden reports")

// The -json and -sarif reports over the planted-bug fixture module must
// be byte-identical to the goldens (make fppnlint-golden-update rewrites
// them).
func TestGoldenReports(t *testing.T) {
	root := filepath.Join("testdata", "src", "fixture")
	for _, tc := range []struct{ format, golden string }{
		{formatJSON, "golden.json"},
		{formatSARIF, "golden.sarif"},
	} {
		var out bytes.Buffer
		status, err := run(&out, root, tc.format)
		if err != nil {
			t.Fatalf("%s: %v", tc.format, err)
		}
		if status != exitDiagnostics {
			t.Fatalf("%s: planted bugs not found (status %d):\n%s", tc.format, status, out.String())
		}
		for _, want := range []string{"jobreach", "planfreeze"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s report missing a %s finding:\n%s", tc.format, want, out.String())
			}
		}
		path := filepath.Join("testdata", tc.golden)
		if *update {
			if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s report differs from %s (re-run with -update if intended):\ngot:\n%s\nwant:\n%s",
				tc.format, path, out.String(), want)
		}
	}
}

package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	name, r, ok := parseLine("BenchmarkFig1ZeroDelay-8   \t39511\t  30025 ns/op\t   20152 B/op\t     243 allocs/op")
	if !ok {
		t.Fatal("line not recognized")
	}
	if name != "BenchmarkFig1ZeroDelay" {
		t.Fatalf("name = %q, want GOMAXPROCS suffix stripped", name)
	}
	if r.Iterations != 39511 || r.NsPerOp != 30025 {
		t.Fatalf("iterations/ns = %d/%v", r.Iterations, r.NsPerOp)
	}
	if r.BytesPerOp == nil || *r.BytesPerOp != 20152 {
		t.Fatalf("B/op = %v", r.BytesPerOp)
	}
	if r.AllocsPerOp == nil || *r.AllocsPerOp != 243 {
		t.Fatalf("allocs/op = %v", r.AllocsPerOp)
	}
}

func TestParseLineNoBenchmem(t *testing.T) {
	name, r, ok := parseLine("BenchmarkX 100 12.5 ns/op")
	if !ok || name != "BenchmarkX" {
		t.Fatalf("ok=%v name=%q", ok, name)
	}
	if r.NsPerOp != 12.5 || r.BytesPerOp != nil || r.AllocsPerOp != nil {
		t.Fatalf("want null memory metrics without -benchmem, got %+v", r)
	}
}

func TestCompareResultsFlagsRegressions(t *testing.T) {
	baseline := map[string]Result{
		"BenchmarkFast":    {NsPerOp: 1000},
		"BenchmarkSlow":    {NsPerOp: 1000},
		"BenchmarkRemoved": {NsPerOp: 500},
	}
	fresh := map[string]Result{
		"BenchmarkFast": {NsPerOp: 400},  // improvement
		"BenchmarkSlow": {NsPerOp: 1500}, // +50%: beyond a 25% threshold
		"BenchmarkNew":  {NsPerOp: 123},
	}
	var sb strings.Builder
	if n := compareResults(&sb, baseline, fresh, 25, nil); n != 1 {
		t.Fatalf("regressions = %d, want 1\n%s", n, sb.String())
	}
	out := sb.String()
	for _, want := range []string{
		"BenchmarkSlow", "REGRESSION", "+50.0%", // the regression, marked
		"-60.0%",  // the improvement, unmarked
		"new",     // BenchmarkNew is informational
		"removed", // BenchmarkRemoved is informational
	} {
		if !strings.Contains(out, want) {
			t.Errorf("compare table missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "REGRESSION") != 1 {
		t.Errorf("exactly one REGRESSION mark expected:\n%s", out)
	}
}

// A row the baseline records at 0 allocs/op regresses as soon as it
// allocates, however fast it runs; rows that already allocate, or carry no
// allocation count, are judged on ns/op alone.
func TestCompareResultsFlagsNewAllocations(t *testing.T) {
	allocs := func(v float64) *float64 { return &v }
	baseline := map[string]Result{
		"BenchmarkZeroAlloc":  {NsPerOp: 1000, AllocsPerOp: allocs(0)},
		"BenchmarkStillZero":  {NsPerOp: 1000, AllocsPerOp: allocs(0)},
		"BenchmarkAllocating": {NsPerOp: 1000, AllocsPerOp: allocs(3)},
		"BenchmarkNoBenchmem": {NsPerOp: 1000},
	}
	fresh := map[string]Result{
		"BenchmarkZeroAlloc":  {NsPerOp: 500, AllocsPerOp: allocs(1)},
		"BenchmarkStillZero":  {NsPerOp: 1100, AllocsPerOp: allocs(0)},
		"BenchmarkAllocating": {NsPerOp: 1000, AllocsPerOp: allocs(40)},
		"BenchmarkNoBenchmem": {NsPerOp: 1000, AllocsPerOp: allocs(2)},
	}
	var sb strings.Builder
	if n := compareResults(&sb, baseline, fresh, 25, nil); n != 1 {
		t.Fatalf("regressions = %d, want 1\n%s", n, sb.String())
	}
	if out := sb.String(); !strings.Contains(out, "ALLOCS 0 -> 1") || strings.Contains(out, "REGRESSION") {
		t.Errorf("want only BenchmarkZeroAlloc flagged for allocating:\n%s", out)
	}
}

// A row exempted from the allocation rule is judged on ns/op alone.
func TestCompareResultsAllocExempt(t *testing.T) {
	zero, one := 0.0, 1.0
	baseline := map[string]Result{
		"BenchmarkFlaky":  {NsPerOp: 1000, AllocsPerOp: &zero},
		"BenchmarkPinned": {NsPerOp: 1000, AllocsPerOp: &zero},
	}
	fresh := map[string]Result{
		"BenchmarkFlaky":  {NsPerOp: 1000, AllocsPerOp: &one},
		"BenchmarkPinned": {NsPerOp: 1000, AllocsPerOp: &one},
	}
	var sb strings.Builder
	if n := compareResults(&sb, baseline, fresh, 25, regexp.MustCompile(`^BenchmarkFlaky$`)); n != 1 {
		t.Fatalf("regressions = %d, want only BenchmarkPinned flagged\n%s", n, sb.String())
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if marked := strings.Contains(line, "ALLOCS"); marked != strings.HasPrefix(line, "BenchmarkPinned") {
			t.Errorf("want the ALLOCS mark on BenchmarkPinned alone: %q", line)
		}
	}
}

func TestCompareResultsWithinThreshold(t *testing.T) {
	baseline := map[string]Result{"BenchmarkX": {NsPerOp: 1000}}
	fresh := map[string]Result{"BenchmarkX": {NsPerOp: 1200}} // +20% under 25%
	var sb strings.Builder
	if n := compareResults(&sb, baseline, fresh, 25, nil); n != 0 {
		t.Fatalf("regressions = %d, want 0\n%s", n, sb.String())
	}
}

func TestCurrentMetaRecordsRuntime(t *testing.T) {
	m := currentMeta()
	if m.GoMaxProcs < 1 {
		t.Fatalf("GoMaxProcs = %d, want >= 1", m.GoMaxProcs)
	}
	if !strings.HasPrefix(m.GoVersion, "go") {
		t.Fatalf("GoVersion = %q, want a go version string", m.GoVersion)
	}
}

func TestParseLineRejectsNonResults(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \trepro\t1.234s",
		"BenchmarkBroken only-three fields",
		"",
	} {
		if _, _, ok := parseLine(line); ok {
			t.Errorf("parseLine(%q) accepted a non-result line", line)
		}
	}
}

func TestParseLineCapturesExtraUnits(t *testing.T) {
	name, r, ok := parseLine("BenchmarkServeSimulateFMSParallel-8   2215   122305 ns/op   196608 p99-ns   8176 req/s   9130 B/op   48 allocs/op")
	if !ok {
		t.Fatal("line rejected")
	}
	if name != "BenchmarkServeSimulateFMSParallel" {
		t.Fatalf("name = %q", name)
	}
	if r.NsPerOp != 122305 {
		t.Fatalf("ns/op = %v", r.NsPerOp)
	}
	if r.Extra["p99-ns"] != 196608 || r.Extra["req/s"] != 8176 {
		t.Fatalf("extra units not captured: %v", r.Extra)
	}
	if r.BytesPerOp == nil || *r.BytesPerOp != 9130 {
		t.Fatalf("B/op lost next to extra units: %v", r.BytesPerOp)
	}
}

func TestLoadResultsRoundTripsExtra(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	doc := `{
  "_meta": {"gomaxprocs": 8, "go_version": "go1.x"},
  "BenchmarkOld": {"iterations": 10, "ns_per_op": 5, "bytes_per_op": null, "allocs_per_op": null},
  "BenchmarkServe": {"iterations": 2, "ns_per_op": 7, "bytes_per_op": null, "allocs_per_op": null, "extra": {"req/s": 8000}}
}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d results (metadata not skipped?): %v", len(got), got)
	}
	if got["BenchmarkServe"].Extra["req/s"] != 8000 {
		t.Fatalf("extra lost on load: %+v", got["BenchmarkServe"])
	}

	// Merge semantics: fresh results overlay the loaded ones.
	fresh := map[string]Result{"BenchmarkServe": {Iterations: 5, NsPerOp: 6}}
	for n, r := range fresh {
		got[n] = r
	}
	if got["BenchmarkServe"].NsPerOp != 6 || got["BenchmarkOld"].NsPerOp != 5 {
		t.Fatalf("merge overlay wrong: %v", got)
	}
}

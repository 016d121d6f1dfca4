package cli

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/sched"
)

func TestLoadModelDigestIsStable(t *testing.T) {
	t.Parallel()
	a, err := LoadModel("fms")
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadModel("fms")
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == "" || len(a.Digest) != 64 {
		t.Fatalf("digest %q is not a sha256 hex", a.Digest)
	}
	if a.Digest != b.Digest {
		t.Fatalf("two loads of the same model digest differently: %s vs %s", a.Digest, b.Digest)
	}
	if string(a.Canonical) != string(b.Canonical) {
		t.Fatal("canonical JSON differs between loads")
	}
}

func TestLoadModelDigestsDifferAcrossApps(t *testing.T) {
	t.Parallel()
	seen := map[string]string{}
	for _, name := range apps.Names() {
		m, err := LoadModel(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, ok := seen[m.Digest]; ok {
			t.Fatalf("%s and %s share digest %s", name, prev, m.Digest)
		}
		seen[m.Digest] = name
	}
}

func TestLoadModelScale(t *testing.T) {
	t.Parallel()
	a, err := LoadModel("scale:1k")
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadModel("scale:1000")
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("scale:1k and scale:1000 digest differently: %s vs %s", a.Digest, b.Digest)
	}
	if len(a.Net.Processes()) == 0 {
		t.Fatal("scale model has no processes")
	}
	if got := a.Inputs(2); len(got) == 0 {
		t.Fatal("scale model has no generated inputs")
	}
}

func TestLoadModelUnknownIsUsageError(t *testing.T) {
	t.Parallel()
	for _, spec := range []string{"no-such-app", "scale:x", "scale:-3", "scale:"} {
		if _, err := LoadModel(spec); err == nil {
			t.Errorf("LoadModel(%q) succeeded", spec)
		} else if !IsUsage(err) {
			t.Errorf("LoadModel(%q): %v is not a usage error", spec, err)
		}
	}
}

// TestParseScaleTargetBound accepts targets up to taskgraph.MaxFrameJobs
// and rejects larger ones, including those whose "k" multiply overflows,
// as usage errors before any network is built.
func TestParseScaleTargetBound(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		spec string
		want int // 0: usage error
	}{
		{"scale:10k", 10_000},
		{"scale:100k", 100_000},
		{"scale:1048k", 1_048_000},
		{"scale:1048576", 1 << 20},
		{"scale:1048577", 0},
		{"scale:1049k", 0},
		{"scale:100000k", 0},
		{"scale:9223372036854775807k", 0},
		{"scale:9223372036854775807", 0},
		{"scale:99999999999999999999", 0},
	} {
		got, err := parseScaleTarget(tc.spec)
		switch {
		case tc.want == 0 && !IsUsage(err):
			t.Errorf("parseScaleTarget(%q) = %d, %v; want a usage error", tc.spec, got, err)
		case tc.want != 0 && (err != nil || got != tc.want):
			t.Errorf("parseScaleTarget(%q) = %d, %v; want %d", tc.spec, got, err, tc.want)
		}
	}
}

func TestModelInputsCoverEveryRegistryApp(t *testing.T) {
	t.Parallel()
	for _, name := range apps.Names() {
		m, err := LoadModel(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		inputs := m.Inputs(3)
		for _, ch := range m.Net.ExternalInputs() {
			if len(inputs[ch]) == 0 {
				t.Errorf("%s: no samples for external input %q", name, ch)
			}
		}
	}
}

func TestParseHeuristic(t *testing.T) {
	t.Parallel()
	for _, h := range sched.Heuristics {
		got, err := ParseHeuristic(h.String())
		if err != nil || got != h {
			t.Errorf("ParseHeuristic(%q) = %v, %v", h.String(), got, err)
		}
	}
	if _, err := ParseHeuristic("nope"); !IsUsage(err) {
		t.Errorf("unknown heuristic: %v is not a usage error", err)
	}
	if _, err := ParseHeuristic(PortfolioName); err == nil {
		t.Error("portfolio parsed as a plain heuristic")
	}
}

func TestModelNamesMentionScale(t *testing.T) {
	t.Parallel()
	if !strings.Contains(strings.Join(ModelNames(), " "), scalePrefix) {
		t.Fatalf("ModelNames() = %v lacks the scale pattern", ModelNames())
	}
}

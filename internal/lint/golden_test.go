package lint

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite the golden testdata files")

// goldenTargets are the networks whose lint reports are pinned: the three
// paper applications (clean) and the six broken demo fixtures. fppnvet
// -json emits exactly these bytes.
func goldenTargets(t *testing.T) map[string]*core.Network {
	t.Helper()
	out := make(map[string]*core.Network)
	for _, name := range []string{"signal", "fft", "fms"} {
		net, err := apps.Build(name)
		if err != nil {
			t.Fatalf("apps.Build(%s): %v", name, err)
		}
		out[name] = net
	}
	out["broken-model"] = BrokenModel()
	out["broken-timing"] = BrokenTiming()
	out["broken-flow"] = BrokenFlow()
	out["broken-feas"] = BrokenFeas()
	out["broken-hb"] = BrokenHB()
	out["broken-timescale"] = BrokenTimescale()
	return out
}

func TestGolden(t *testing.T) {
	for name, net := range goldenTargets(t) {
		t.Run(name, func(t *testing.T) {
			got, err := Run(net, Options{}).JSON()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", name+".json")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if got != string(want) {
				t.Errorf("report differs from %s (re-run with -update if intended):\ngot:\n%s\nwant:\n%s",
					path, got, want)
			}
		})
	}
}

package fppn_test

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

var updatePrograms = flag.Bool("update", false, "rewrite testdata/programs from the current outputs")

// TestProgramOutputs builds cmd/experiments and every example, runs each
// and demands that its standard output equal testdata/programs/<name>.txt
// byte for byte: the programs are deterministic, so any change to what
// they print is a behaviour change (make programs-golden-update rewrites
// the goldens).
func TestProgramOutputs(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build", "-o", bin+string(filepath.Separator),
		"./cmd/experiments", "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range []string{"experiments", "extensions", "fft", "fms", "quickstart", "signalchain"} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(filepath.Join(bin, name))
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Errorf("%s: %v\n%s", name, err, stderr.Bytes())
			continue
		}
		path := filepath.Join("testdata", "programs", name+".txt")
		if *updatePrograms {
			if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%s output differs from %s (re-run with -update if intended):\ngot:\n%s\nwant:\n%s",
				name, path, stdout.Bytes(), want)
		}
	}
}

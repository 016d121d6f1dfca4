// Command fppnlint-go runs the repository's custom determinism analyzers
// (internal/analyzers: noclock, maporder, nakedgo, plus the
// interprocedural jobreach and planfreeze call-graph passes) over a
// source tree. It is the project's stdlib-only stand-in for a
// `go vet -vettool` driver.
//
// Usage:
//
//	fppnlint-go [-json | -sarif] [root]
//
// root defaults to the current directory. -json emits the raw
// diagnostic list; -sarif emits a SARIF 2.1.0 log for code-scanning
// upload. Exit status: 0 when clean, 1 when any diagnostic is reported,
// 2 on bad usage or parse failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analyzers"
)

const (
	exitClean       = 0
	exitDiagnostics = 1
	exitUsage       = 2
)

// Output formats.
const (
	formatText  = "text"
	formatJSON  = "json"
	formatSARIF = "sarif"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON")
	sarifOut := flag.Bool("sarif", false, "emit diagnostics as a SARIF 2.1.0 log")
	flag.Parse()
	if flag.NArg() > 1 || (*jsonOut && *sarifOut) {
		fmt.Fprintln(os.Stderr, "usage: fppnlint-go [-json | -sarif] [root]")
		os.Exit(exitUsage)
	}
	root := "."
	if flag.NArg() == 1 {
		root = flag.Arg(0)
	}
	format := formatText
	if *jsonOut {
		format = formatJSON
	}
	if *sarifOut {
		format = formatSARIF
	}
	status, err := run(os.Stdout, root, format)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fppnlint-go:", err)
	}
	os.Exit(status)
}

func run(w io.Writer, root, format string) (int, error) {
	diags, err := analyzers.CheckAll(root)
	if err != nil {
		return exitUsage, err
	}
	switch format {
	case formatJSON:
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			return exitUsage, err
		}
	case formatSARIF:
		if err := writeSARIF(w, diags); err != nil {
			return exitUsage, err
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(w, d)
		}
		fmt.Fprintf(w, "fppnlint-go: %d diagnostic(s) in %s\n", len(diags), root)
	}
	if len(diags) > 0 {
		return exitDiagnostics, nil
	}
	return exitClean, nil
}

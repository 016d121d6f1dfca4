package analyzers

import (
	"go/ast"
)

// concurrencyDirs are the audited concurrency layers: internal/plan's
// compiled goroutine-per-processor runner with its virtual clock, and the
// serving layer — internal/serve's singleflight cache, cmd/fppnd's
// listener/drainer and cmd/fppnload's closed-loop client workers — whose
// request-level concurrency is pinned byte-identical to sequential runs by
// the serve differential harness. Derivation, scheduling and analysis run
// on the caller's goroutine.
var concurrencyDirs = []string{
	"internal/plan",
	"internal/serve",
	"cmd/fppnd",
	"cmd/fppnload",
}

// NakedGo forbids `go` statements everywhere else. The differential tests
// prove the runtime's and the server's results are identical with and
// without concurrency, but only because every fork point sits in the
// audited layers; a stray goroutine elsewhere would reintroduce
// scheduling nondeterminism invisibly.
var NakedGo = &Analyzer{
	Name: "nakedgo",
	Doc: "forbid go statements outside internal/plan and the serving layer (internal/serve, cmd/fppnd, cmd/fppnload); " +
		"route concurrency through the audited deterministic layers",
	Applies: func(dir string) bool { return !dirIn(dir, concurrencyDirs...) },
	Run:     runNakedGo,
}

func runNakedGo(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				p.Reportf(g.Pos(),
					"naked go statement in %s; goroutines belong to internal/plan (processor runners) and the serving layer",
					p.Dir)
			}
			return true
		})
	}
}

package analyzers

import (
	"go/ast"
)

// concurrencyDirs are the audited concurrency layers: internal/parallel's
// deterministic worker pool, internal/plan's compiled
// goroutine-per-processor runner with its virtual clock, and the serving
// layer — internal/serve's
// singleflight cache, cmd/fppnd's listener/drainer and cmd/fppnload's
// closed-loop client workers — whose request-level concurrency is pinned
// byte-identical to sequential runs by the serve differential harness.
var concurrencyDirs = []string{
	"internal/parallel",
	"internal/plan",
	"internal/serve",
	"cmd/fppnd",
	"cmd/fppnload",
}

// NakedGo forbids `go` statements everywhere else. The differential tests
// prove the pipeline's results are identical with and without
// concurrency, but only because every fork point is funnelled through the
// two audited layers; a stray goroutine elsewhere would reintroduce
// scheduling nondeterminism invisibly.
var NakedGo = &Analyzer{
	Name: "nakedgo",
	Doc: "forbid go statements outside internal/parallel and internal/plan; " +
		"route concurrency through the audited deterministic layers",
	Applies: func(dir string) bool { return !dirIn(dir, concurrencyDirs...) },
	Run:     runNakedGo,
}

func runNakedGo(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				p.Reportf(g.Pos(),
					"naked go statement in %s; use internal/parallel (worker pools) or internal/plan (processor runners)",
					p.Dir)
			}
			return true
		})
	}
}

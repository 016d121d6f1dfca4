// Package plan is a minimal stand-in for the real plan package with one
// planted planfreeze bug, pinned by the golden reports: a run method that
// counts its runs on the compiled Plan every run shares.
package plan

// Plan is the compiled artifact, immutable after Compile.
type Plan struct {
	frames int
	runs   int
}

// Compile builds a Plan; its writes to the fresh value are the compile
// pipeline's own and exempt.
func Compile(frames int) *Plan {
	p := &Plan{}
	p.frames = frames
	return p
}

// Run keeps per-run state on the shared Plan instead of a RunState.
func (p *Plan) Run() int {
	p.runs++
	return p.frames
}

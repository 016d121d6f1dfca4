package core

import (
	"fmt"
	"sort"
)

// Behavior is the functional body of a process: one Step call is one "job
// execution run" of the process automaton (Definition 2.2 of the paper).
// Implementations must be deterministic functions of the values they read
// and of their internal state, which Init resets to its initial values.
type Behavior interface {
	// Init (re)initializes the internal variables of the process.
	Init()
	// Step executes one job. All channel access goes through ctx.
	Step(ctx *JobContext) error
}

// BehaviorFunc adapts a stateless function to the Behavior interface.
type BehaviorFunc func(ctx *JobContext) error

// Init implements Behavior; a BehaviorFunc has no internal state.
func (f BehaviorFunc) Init() {}

// Step implements Behavior.
func (f BehaviorFunc) Step(ctx *JobContext) error { return f(ctx) }

// nopBehavior is a comparable type so static analyses can recognize a
// declared no-op (p.Behavior == NopBehavior) without executing it.
type nopBehavior struct{}

func (nopBehavior) Init()                  {}
func (nopBehavior) Step(*JobContext) error { return nil }

// NopBehavior is a Behavior that does nothing; useful for timing-only
// analyses where functional content is irrelevant. A process with a nil
// or NopBehavior body never touches its channels, and the static
// dataflow analysis relies on that.
var NopBehavior Behavior = nopBehavior{}

// Process is an FPPN process: a deterministic behaviour attached one-to-one
// to an event generator.
type Process struct {
	Name string
	Gen  Generator
	// WCET is the worst-case execution time used by the scheduler. The
	// paper obtains it from profiling; here it is a model parameter.
	WCET Time
	// Behavior is the functional body. A nil Behavior acts as NopBehavior.
	Behavior Behavior

	// pid is the process's position in its network's Processes, set by
	// the Network builder.
	pid int

	// Channel attachments, maintained by the Network builder.
	inputs  []string // internal channels this process reads
	outputs []string // internal channels this process writes
	extIn   []string // external input channels
	extOut  []string // external output channels
}

// Period returns the generator period T_p.
func (p *Process) Period() Time { return p.Gen.Period }

// Deadline returns the relative deadline d_p.
func (p *Process) Deadline() Time { return p.Gen.Deadline }

// Burst returns the burst size m_p.
func (p *Process) Burst() int { return p.Gen.Burst }

// IsSporadic reports whether the process is driven by a sporadic generator.
func (p *Process) IsSporadic() bool { return p.Gen.Kind == Sporadic }

// Inputs returns the internal channels read by the process, sorted.
func (p *Process) Inputs() []string { return sortedCopy(p.inputs) }

// Outputs returns the internal channels written by the process, sorted.
func (p *Process) Outputs() []string { return sortedCopy(p.outputs) }

// ExternalInputs returns the external input channels of the process, sorted.
func (p *Process) ExternalInputs() []string { return sortedCopy(p.extIn) }

// ExternalOutputs returns the external output channels of the process,
// sorted.
func (p *Process) ExternalOutputs() []string { return sortedCopy(p.extOut) }

// String formats the process like the paper's figures, e.g.
// "FilterA 100ms" or "CoefB sporadic 2 per 700ms".
func (p *Process) String() string {
	return fmt.Sprintf("%s %v", p.Name, p.Gen)
}

func sortedCopy(in []string) []string {
	out := make([]string, len(in))
	copy(out, in)
	sort.Strings(out)
	return out
}

func (p *Process) behavior() Behavior {
	if p.Behavior == nil {
		return NopBehavior
	}
	return p.Behavior
}

func (p *Process) hasExtIn(ch string) bool  { return contains(p.extIn, ch) }
func (p *Process) hasExtOut(ch string) bool { return contains(p.extOut, ch) }

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

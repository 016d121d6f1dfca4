package core

// This file implements the zero-delay semantics of Section II of the paper:
// the execution trace Trace(PN) = w(t1) ∘ α1 ∘ w(t2) ∘ α2 ... where α_i is a
// concatenation of job execution runs of the processes invoked at t_i, in an
// order such that p1 -> p2 implies the jobs of p1 run first.

// ZeroDelayOptions configures a zero-delay run.
type ZeroDelayOptions struct {
	// SporadicEvents supplies the event time stamps of every sporadic
	// process (map key = process name).
	SporadicEvents map[string][]Time
	// Inputs supplies external input samples per channel.
	Inputs map[string][]Value
	// Seed selects the linear extension of FP used to order
	// simultaneously invoked, FP-unrelated jobs. Seed < 0 gives the
	// deterministic default order; different non-negative seeds give
	// different FP-respecting orders, all of which must produce the same
	// outputs (Proposition 2.1).
	Seed int64
	// RecordTrace enables action-trace recording.
	RecordTrace bool
}

// ZeroDelayResult is the outcome of a zero-delay run.
type ZeroDelayResult struct {
	// Jobs is the executed job sequence in the total order <_J.
	Jobs []JobRef
	// Trace is the action trace (empty unless RecordTrace was set).
	Trace Trace
	// Outputs holds the samples written to each external output channel.
	Outputs map[string][]Sample
	// Channels is the final observable state of every internal channel.
	Channels map[string][]Value
}

// RunZeroDelay executes the network under the zero-delay semantics over
// [0, horizon). It is a compile-then-run facade over CompiledNet:
// repeated-execution callers should call CompileNetwork once and
// CompiledNet.RunZeroDelay per run.
func RunZeroDelay(net *Network, horizon Time, opts ZeroDelayOptions) (*ZeroDelayResult, error) {
	cn, err := CompileNetwork(net)
	if err != nil {
		return nil, err
	}
	return cn.RunZeroDelay(horizon, opts)
}

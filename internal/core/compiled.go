package core

// This file implements the compile layer of the execution engines: a
// CompiledNet interns a validated Network's process and channel names into
// contiguous integer IDs and precomputes every lookup table the hot paths
// need, so that repeated executions (benchmark loops, multi-frame runtime
// replays, the timed-automata interpreter) pay for validation, map
// construction and name resolution exactly once. The interned tables are
// read-only after compilation and therefore safe to share across
// concurrently running Machines.

import (
	"errors"
	"fmt"
	"sort"
)

// CompiledNet is the interned, validated form of a Network. Process IDs
// (pids) and channel IDs (cids) are indices into the insertion-order
// slices, matching Network.Processes and Network.Channels.
type CompiledNet struct {
	net *Network

	procs  []*Process
	chans  []*Channel
	chanID map[string]int
	// chanSorted lists cids in channel-name order, the order
	// ChannelSnapshot reports.
	chanSorted []int

	// Per-pid channel attachments with names resolved to cids. The name
	// slices are parallel to the id slices and kept in the process's
	// attachment order; fan-in/fan-out per process is small, so the hot
	// path resolves names by linear scan instead of a map hash.
	inName  [][]string
	inID    [][]int
	outName [][]string
	outID   [][]int
	// Sorted channel names per pid (the JobContext accessor contract) —
	// computed once instead of per job execution run.
	inSorted     [][]string
	outSorted    [][]string
	extInSorted  [][]string
	extOutSorted [][]string

	// sporadicPid lists the pids of sporadic processes.
	sporadicPid []int

	// defaultRank caches Network.FPRank(-1).
	defaultRank []int
}

// CompileNetwork validates the network and builds its interned form. The
// returned CompiledNet assumes the network is not mutated afterwards;
// builder calls after compilation leave the compiled tables stale.
func CompileNetwork(net *Network) (*CompiledNet, error) {
	return CompileNetworkOpts(net, CompileOptions{})
}

// CompileOptions tunes network compilation.
type CompileOptions struct {
	// AllowUncoveredChannels interns a network even when some channel
	// pairs lack functional-priority coverage (FPPN003); every other
	// well-formedness rule still applies. Diagnostic pipelines (the
	// FPPN020 happens-before verifier) use this to execute-and-examine
	// the exact plan a coverage gap would produce.
	AllowUncoveredChannels bool
}

// CompileNetworkOpts is CompileNetwork with explicit options.
func CompileNetworkOpts(net *Network, opts CompileOptions) (*CompiledNet, error) {
	if opts.AllowUncoveredChannels {
		var errs []error
		for _, p := range net.Problems() {
			if p.Code != CodeFPCoverage {
				errs = append(errs, p)
			}
		}
		if len(errs) > 0 {
			return nil, fmt.Errorf("core: invalid network %q: %w", net.Name, errors.Join(errs...))
		}
	} else if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid network %q: %w", net.Name, err)
	}
	cn := &CompiledNet{
		net:    net,
		procs:  net.Processes(),
		chans:  net.Channels(),
		chanID: make(map[string]int, len(net.chanOrder)),
	}
	for i, c := range cn.chans {
		cn.chanID[c.Name] = i
	}
	cn.chanSorted = make([]int, len(cn.chans))
	for i := range cn.chanSorted {
		cn.chanSorted[i] = i
	}
	sort.Slice(cn.chanSorted, func(a, b int) bool {
		return cn.chans[cn.chanSorted[a]].Name < cn.chans[cn.chanSorted[b]].Name
	})

	n := len(cn.procs)
	cn.inName = make([][]string, n)
	cn.inID = make([][]int, n)
	cn.outName = make([][]string, n)
	cn.outID = make([][]int, n)
	cn.inSorted = make([][]string, n)
	cn.outSorted = make([][]string, n)
	cn.extInSorted = make([][]string, n)
	cn.extOutSorted = make([][]string, n)
	for pid, p := range cn.procs {
		for _, ch := range p.inputs {
			cn.inName[pid] = append(cn.inName[pid], ch)
			cn.inID[pid] = append(cn.inID[pid], cn.chanID[ch])
		}
		for _, ch := range p.outputs {
			cn.outName[pid] = append(cn.outName[pid], ch)
			cn.outID[pid] = append(cn.outID[pid], cn.chanID[ch])
		}
		cn.inSorted[pid] = sortedCopy(p.inputs)
		cn.outSorted[pid] = sortedCopy(p.outputs)
		cn.extInSorted[pid] = sortedCopy(p.extIn)
		cn.extOutSorted[pid] = sortedCopy(p.extOut)
		if p.IsSporadic() {
			cn.sporadicPid = append(cn.sporadicPid, pid)
		}
	}

	rank, err := net.FPRank(-1)
	if err != nil {
		return nil, err
	}
	cn.defaultRank = rank
	return cn, nil
}

// Network returns the source network.
func (cn *CompiledNet) Network() *Network { return cn.net }

// NumProcesses returns the process count.
func (cn *CompiledNet) NumProcesses() int { return len(cn.procs) }

// RunZeroDelay executes the compiled network under the zero-delay
// semantics over [0, horizon) — the interned fast path behind the
// string-keyed core.RunZeroDelay facade. Repeated calls share all compile
// work (validation, interning, the default FP linear extension).
func (cn *CompiledNet) RunZeroDelay(horizon Time, opts ZeroDelayOptions) (*ZeroDelayResult, error) {
	rank := cn.defaultRank
	if opts.Seed >= 0 {
		var err error
		if rank, err = cn.net.FPRank(opts.Seed); err != nil {
			return nil, err
		}
	}
	return cn.RunRanked(horizon, rank, opts)
}

// RunRanked is RunZeroDelay with simultaneous jobs ordered by rank, one
// entry per process (a permutation; lower runs first), in place of a
// linear extension of FP; opts.Seed is not read. With a rank that does not
// extend FP it runs an order the zero-delay semantics do not allow, which
// is how the uniprocessor baseline shows a priority assignment diverging.
func (cn *CompiledNet) RunRanked(horizon Time, rank []int, opts ZeroDelayOptions) (*ZeroDelayResult, error) {
	order, err := JobOrder(cn.net, rank, horizon, opts.SporadicEvents)
	if err != nil {
		return nil, err
	}
	jobs := order.Refs()
	m, err := NewMachineCompiled(cn, MachineOptions{Inputs: opts.Inputs, RecordTrace: opts.RecordTrace})
	if err != nil {
		return nil, err
	}
	for i, j := range jobs {
		if i == 0 || !order.Jobs[i].sameInstant(order.Jobs[i-1]) {
			m.Wait(j.Time)
		}
		if err := m.ExecJobID(order.Jobs[i].Pid, j.Time); err != nil {
			return nil, fmt.Errorf("core: zero-delay run of %q: %w", cn.net.Name, err)
		}
	}
	return &ZeroDelayResult{
		Jobs:     jobs,
		Trace:    m.Trace(),
		Outputs:  m.Outputs(),
		Channels: m.ChannelSnapshot(),
	}, nil
}

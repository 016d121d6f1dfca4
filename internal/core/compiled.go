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
	procID map[string]int
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

	// fpSucc[hi] lists the pids lo with an FP edge hi -> lo, in
	// lo-name order (the tie-break order of LinearExtension).
	fpSucc  [][]int
	fpIndeg []int

	// defaultRank caches LinearExtension(seed < 0).
	defaultRank []int

	// hyper memoizes Hyperperiod(net, nil); hyperErr records the failure
	// if the raw periods are unusable (never for a validated network).
	hyper    Time
	hyperErr error
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
		procID: make(map[string]int, len(net.procOrder)),
		chanID: make(map[string]int, len(net.chanOrder)),
	}
	for i, p := range cn.procs {
		cn.procID[p.Name] = i
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

	// Interned FP graph. Successor lists are sorted by the successor's
	// name so LinearExtension's unblocked queue reproduces the legacy
	// (name-sorted) tie-break order exactly.
	cn.fpSucc = make([][]int, n)
	cn.fpIndeg = make([]int, n)
	for hi, los := range net.fp {
		hiID := cn.procID[hi]
		for lo := range los {
			loID := cn.procID[lo]
			cn.fpSucc[hiID] = append(cn.fpSucc[hiID], loID)
			cn.fpIndeg[loID]++
		}
	}
	for pid := range cn.fpSucc {
		succ := cn.fpSucc[pid]
		sort.Slice(succ, func(a, b int) bool {
			return cn.procs[succ[a]].Name < cn.procs[succ[b]].Name
		})
	}

	rank, err := cn.linearExtension(-1)
	if err != nil {
		return nil, err
	}
	cn.defaultRank = rank

	cn.hyper, cn.hyperErr = Hyperperiod(net, nil)
	return cn, nil
}

// Network returns the source network.
func (cn *CompiledNet) Network() *Network { return cn.net }

// NumProcesses returns the process count.
func (cn *CompiledNet) NumProcesses() int { return len(cn.procs) }

// ProcID returns the interned id of the named process, or -1.
func (cn *CompiledNet) ProcID(name string) int {
	if id, ok := cn.procID[name]; ok {
		return id
	}
	return -1
}

// ProcName returns the name of the process with the given id.
func (cn *CompiledNet) ProcName(pid int) string { return cn.procs[pid].Name }

// Hyperperiod returns the memoized LCM of the raw process periods.
func (cn *CompiledNet) Hyperperiod() (Time, error) { return cn.hyper, cn.hyperErr }

// linearExtension computes a rank per pid forming a total order extending
// the FP DAG, reproducing Network.LinearExtension exactly: seed < 0 breaks
// ties by insertion order, seed >= 0 pseudo-randomly via splitmix64.
func (cn *CompiledNet) linearExtension(seed int64) ([]int, error) {
	if seed < 0 && cn.defaultRank != nil {
		return cn.defaultRank, nil
	}
	n := len(cn.procs)
	indeg := make([]int, n)
	copy(indeg, cn.fpIndeg)
	var rng *splitmix64
	if seed >= 0 {
		rng = newSplitmix64(uint64(seed))
	}
	ready := make([]int, 0, n)
	for pid := 0; pid < n; pid++ {
		if indeg[pid] == 0 {
			ready = append(ready, pid)
		}
	}
	rank := make([]int, n)
	for i := range rank {
		rank[i] = -1
	}
	next := 0
	for len(ready) > 0 {
		i := 0
		if rng != nil {
			i = rng.Intn(len(ready))
		}
		pid := ready[i]
		ready = append(ready[:i], ready[i+1:]...)
		rank[pid] = next
		next++
		// fpSucc is name-sorted, so unblocked pids append in the legacy
		// tie-break order.
		for _, lo := range cn.fpSucc[pid] {
			indeg[lo]--
			if indeg[lo] == 0 {
				ready = append(ready, lo)
			}
		}
	}
	if next != n {
		return nil, fmt.Errorf("core: functional priority graph has a cycle")
	}
	return rank, nil
}

// RunZeroDelay executes the compiled network under the zero-delay
// semantics over [0, horizon) — the interned fast path behind the
// string-keyed core.RunZeroDelay facade. Repeated calls share all compile
// work (validation, interning, the default FP linear extension).
func (cn *CompiledNet) RunZeroDelay(horizon Time, opts ZeroDelayOptions) (*ZeroDelayResult, error) {
	entries, err := jobEntries(cn.net, cn.procs, horizon, opts.SporadicEvents)
	if err != nil {
		return nil, err
	}
	rank, err := cn.linearExtension(opts.Seed)
	if err != nil {
		return nil, err
	}
	// The legacy pipeline sorts invocations by (time, process name),
	// then orders simultaneous jobs by (rank, name). Ranks are a total
	// order over processes, so sorting by (time, rank) directly yields
	// the same <_J sequence; the stable sort keeps burst jobs of one
	// process adjacent and in emission order.
	sort.SliceStable(entries, func(i, j int) bool {
		if c := entries[i].t.Cmp(entries[j].t); c != 0 {
			return c < 0
		}
		return rank[entries[i].pid] < rank[entries[j].pid]
	})

	m, err := NewMachineCompiled(cn, MachineOptions{Inputs: opts.Inputs, RecordTrace: opts.RecordTrace})
	if err != nil {
		return nil, err
	}
	jobs := make([]JobRef, 0, len(entries))
	counts := make([]int64, len(cn.procs))
	var lastTime Time
	first := true
	for _, e := range entries {
		if first || !e.t.Equal(lastTime) {
			m.Wait(e.t)
			lastTime = e.t
			first = false
		}
		counts[e.pid]++
		jobs = append(jobs, JobRef{Proc: cn.procs[e.pid].Name, K: counts[e.pid], Time: e.t})
		if err := m.ExecJobID(e.pid, e.t); err != nil {
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

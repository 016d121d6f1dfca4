package integration

// The string-keyed zero-delay order of Section II, kept as the oracle of
// core's integer order (core.PriorityOrder, core.JobOrder): invocations
// expanded per time stamp, a map-keyed Kahn linear extension of FP and the
// job sequence <_J sorted by (time, rank, name). runZeroDelayReference,
// executedBufferBounds and simulateFrameRational build on it.

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/rational"
)

// invocation is the multiset of process invocations occurring at one time
// stamp: the paper's (t_i, P_i). procs lists one entry per invoked job
// (bursts appear multiple times), sorted by process name.
type invocation struct {
	time  core.Time
	procs []string
}

// generateInvocations produces the invocation sequence of the network over
// [0, horizon): periodic generators fire bursts at 0, T, 2T, ...; sporadic
// generators fire at the times supplied in sporadicEvents (validated against
// the (m, T) constraint; events at or beyond the horizon are rejected).
func generateInvocations(net *core.Network, horizon core.Time, sporadicEvents map[string][]core.Time) ([]invocation, error) {
	if horizon.Sign() <= 0 {
		return nil, fmt.Errorf("core: non-positive horizon %v", horizon)
	}
	type entry struct {
		t    core.Time
		proc string
	}
	var entries []entry
	for _, p := range net.Processes() {
		times := sporadicEvents[p.Name]
		if p.Gen.Kind == core.Periodic {
			times = nil
			for t := rational.Zero; t.Less(horizon); t = t.Add(p.Gen.Period) {
				for b := 0; b < p.Gen.Burst; b++ {
					times = append(times, t)
				}
			}
		} else {
			sorted := slices.Clone(times)
			slices.SortFunc(sorted, core.Time.Cmp)
			if err := p.Gen.CheckSporadic(sorted); err != nil {
				return nil, fmt.Errorf("core: process %q: %w", p.Name, err)
			}
			for _, t := range sorted {
				if !t.Less(horizon) {
					return nil, fmt.Errorf("core: process %q: sporadic event at %v is beyond horizon %v",
						p.Name, t, horizon)
				}
			}
			times = sorted
		}
		for _, t := range times {
			entries = append(entries, entry{t, p.Name})
		}
	}
	for proc := range sporadicEvents {
		p := net.Process(proc)
		if p == nil {
			return nil, fmt.Errorf("core: sporadic events for unknown process %q", proc)
		}
		if !p.IsSporadic() {
			return nil, fmt.Errorf("core: sporadic events supplied for non-sporadic process %q", proc)
		}
	}
	sort.SliceStable(entries, func(i, j int) bool {
		if c := entries[i].t.Cmp(entries[j].t); c != 0 {
			return c < 0
		}
		return entries[i].proc < entries[j].proc
	})
	var out []invocation
	for _, e := range entries {
		if n := len(out); n > 0 && out[n-1].time.Equal(e.t) {
			out[n-1].procs = append(out[n-1].procs, e.proc)
		} else {
			out = append(out, invocation{time: e.t, procs: []string{e.proc}})
		}
	}
	return out, nil
}

// linearExtensionReference ranks procs in a total order extending the DAG
// adj (adj[hi][lo]: hi -> lo) by Kahn's algorithm: ready processes in
// insertion order, the front taken (with seed >= 0, an entry picked by
// core's splitmix64 stream, reproduced here), unblocked processes appended
// in name order. ok is false on a cycle.
func linearExtensionReference(procs []string, adj map[string]map[string]bool, seed int64) (map[string]int, bool) {
	indeg := make(map[string]int, len(procs))
	for _, p := range procs {
		indeg[p] = 0
	}
	for _, los := range adj {
		for lo := range los {
			indeg[lo]++
		}
	}
	var rng *splitmix64
	if seed >= 0 {
		rng = newSplitmix64(uint64(seed))
	}
	var ready []string
	for _, p := range procs {
		if indeg[p] == 0 {
			ready = append(ready, p)
		}
	}
	rank := make(map[string]int, len(procs))
	next := 0
	for len(ready) > 0 {
		i := 0
		if rng != nil {
			i = rng.intn(len(ready))
		}
		p := ready[i]
		ready = append(ready[:i], ready[i+1:]...)
		rank[p] = next
		next++
		var unblocked []string
		for lo := range adj[p] {
			indeg[lo]--
			if indeg[lo] == 0 {
				unblocked = append(unblocked, lo)
			}
		}
		sort.Strings(unblocked)
		ready = append(ready, unblocked...)
	}
	return rank, next == len(procs)
}

// fpRankReference is linearExtensionReference over the network's FP DAG.
func fpRankReference(net *core.Network, seed int64) (map[string]int, error) {
	adj := make(map[string]map[string]bool)
	for _, e := range net.PriorityEdges() {
		if adj[e[0]] == nil {
			adj[e[0]] = map[string]bool{}
		}
		adj[e[0]][e[1]] = true
	}
	rank, ok := linearExtensionReference(net.ProcessNames(), adj, seed)
	if !ok {
		return nil, fmt.Errorf("core: functional priority graph has a cycle")
	}
	return rank, nil
}

// jobSequence expands an invocation sequence into the total job order <_J
// of the zero-delay semantics: jobs sorted first by invocation time stamp,
// then by the given rank, then by name, with invocation counts k assigned
// in that order.
func jobSequence(invs []invocation, rank map[string]int) []core.JobRef {
	counts := make(map[string]int64)
	var out []core.JobRef
	for _, inv := range invs {
		procs := slices.Clone(inv.procs)
		sort.SliceStable(procs, func(i, j int) bool {
			ri, rj := rank[procs[i]], rank[procs[j]]
			if ri != rj {
				return ri < rj
			}
			return procs[i] < procs[j]
		})
		for _, p := range procs {
			counts[p]++
			out = append(out, core.JobRef{Proc: p, K: counts[p], Time: inv.time})
		}
	}
	return out
}

// zeroDelayJobsReference is the whole oracle chain: generateInvocations,
// the FP linear extension chosen by seed, jobSequence.
func zeroDelayJobsReference(net *core.Network, horizon core.Time, events map[string][]core.Time, seed int64) ([]core.JobRef, error) {
	invs, err := generateInvocations(net, horizon, events)
	if err != nil {
		return nil, err
	}
	rank, err := fpRankReference(net, seed)
	if err != nil {
		return nil, err
	}
	return jobSequence(invs, rank), nil
}

// splitmix64 reproduces core's tie-break generator for seeded linear
// extensions.
type splitmix64 struct{ state uint64 }

func newSplitmix64(seed uint64) *splitmix64 {
	return &splitmix64{state: seed + 0x9e3779b97f4a7c15}
}

func (s *splitmix64) intn(n int) int {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int((z ^ (z >> 31)) % uint64(n))
}

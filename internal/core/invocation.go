package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/rational"
)

// Invocation is the multiset of process invocations occurring at one time
// stamp: the paper's (t_i, P_i). Procs lists one entry per invoked job
// (bursts appear multiple times) and is kept sorted by process name; the
// execution order within the instant is decided later by a linear extension
// of the functional-priority DAG.
type Invocation struct {
	Time  Time
	Procs []string
}

// JobRef identifies the k-th job of a process together with its invocation
// time stamp.
type JobRef struct {
	Proc string
	K    int64
	Time Time
}

// String formats the job reference as p[k]@t.
func (j JobRef) String() string { return fmt.Sprintf("%s[%d]@%v", j.Proc, j.K, j.Time) }

// GenerateInvocations produces the invocation sequence of the network over
// [0, horizon): periodic generators fire bursts at 0, T, 2T, ...; sporadic
// generators fire at the times supplied in sporadicEvents (validated against
// the (m, T) constraint; events at or beyond the horizon are rejected).
func GenerateInvocations(net *Network, horizon Time, sporadicEvents map[string][]Time) ([]Invocation, error) {
	procs := net.Processes()
	entries, err := jobEntries(net, procs, horizon, sporadicEvents)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(entries, func(i, j int) bool {
		if c := entries[i].t.Cmp(entries[j].t); c != 0 {
			return c < 0
		}
		return procs[entries[i].pid].Name < procs[entries[j].pid].Name
	})
	var out []Invocation
	for _, e := range entries {
		name := procs[e.pid].Name
		if n := len(out); n > 0 && out[n-1].Time.Equal(e.t) {
			out[n-1].Procs = append(out[n-1].Procs, name)
		} else {
			out = append(out, Invocation{Time: e.t, Procs: []string{name}})
		}
	}
	return out, nil
}

// jobEntry is one job invocation: its time stamp and the index of its
// process in the slice handed to jobEntries.
type jobEntry struct {
	t   Time
	pid int
}

// jobEntries expands the invocations of procs, the processes of net, over
// [0, horizon) in process order: every periodic burst and every sporadic
// event, the latter checked by SporadicEvents. Each caller sorts the
// entries into its own order.
func jobEntries(net *Network, procs []*Process, horizon Time, sporadicEvents map[string][]Time) ([]jobEntry, error) {
	events, err := SporadicEvents(net, procs, horizon, sporadicEvents)
	if err != nil {
		return nil, err
	}
	var entries []jobEntry
	for pid, p := range procs {
		times := events[pid]
		if p.Gen.Kind == Periodic {
			times = p.Gen.PeriodicTimes(horizon)
		}
		for _, t := range times {
			entries = append(entries, jobEntry{t, pid})
		}
	}
	return entries, nil
}

// SporadicEvents validates the sporadic event times supplied for net over
// [0, horizon) — each process's (m, T) constraint, the horizon, and that
// every named process exists and is sporadic — and returns them sorted, one
// slice per process of procs (net's processes; nil when periodic).
func SporadicEvents(net *Network, procs []*Process, horizon Time, sporadicEvents map[string][]Time) ([][]Time, error) {
	if horizon.Sign() <= 0 {
		return nil, fmt.Errorf("core: non-positive horizon %v", horizon)
	}
	out := make([][]Time, len(procs))
	for pid, p := range procs {
		if p.Gen.Kind != Sporadic {
			continue
		}
		times := sporadicEvents[p.Name]
		sorted := slices.Clone(times)
		slices.SortFunc(sorted, Time.Cmp)
		if err := p.Gen.CheckSporadic(sorted); err != nil {
			return nil, fmt.Errorf("core: process %q: %w", p.Name, err)
		}
		for _, t := range sorted {
			if !t.Less(horizon) {
				return nil, fmt.Errorf("core: process %q: sporadic event at %v is beyond horizon %v",
					p.Name, t, horizon)
			}
		}
		out[pid] = sorted
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
	return out, nil
}

// LinearExtension returns a rank for every process forming a total order
// that extends the functional-priority DAG: rank(hi) < rank(lo) for every
// FP edge hi -> lo. With seed < 0 ties are broken by insertion order
// (deterministic); with seed >= 0 ties are broken pseudo-randomly, which is
// used to test Proposition 2.1 (any FP-respecting order yields the same
// outputs).
func (n *Network) LinearExtension(seed int64) (map[string]int, error) {
	indeg := make(map[string]int, len(n.procOrder))
	for _, p := range n.procOrder {
		indeg[p] = 0
	}
	for _, los := range n.fp {
		for lo := range los {
			indeg[lo]++
		}
	}
	var rng *splitmix64
	if seed >= 0 {
		rng = newSplitmix64(uint64(seed))
	}
	var ready []string
	for _, p := range n.procOrder {
		if indeg[p] == 0 {
			ready = append(ready, p)
		}
	}
	rank := make(map[string]int, len(n.procOrder))
	next := 0
	for len(ready) > 0 {
		i := 0
		if rng != nil {
			i = rng.Intn(len(ready))
		}
		p := ready[i]
		ready = append(ready[:i], ready[i+1:]...)
		rank[p] = next
		next++
		var unblocked []string
		for lo := range n.fp[p] {
			indeg[lo]--
			if indeg[lo] == 0 {
				unblocked = append(unblocked, lo)
			}
		}
		sort.Strings(unblocked)
		ready = append(ready, unblocked...)
	}
	if next != len(n.procOrder) {
		return nil, fmt.Errorf("core: functional priority graph has a cycle")
	}
	return rank, nil
}

// JobSequence expands an invocation sequence into the total job order <_J
// of the zero-delay semantics: jobs sorted first by invocation time stamp,
// then by the given linear extension of FP, with invocation counts k
// assigned in that order. This same order defines the task-graph node
// sequence in Section III of the paper.
func JobSequence(net *Network, invs []Invocation, rank map[string]int) []JobRef {
	counts := make(map[string]int64)
	var out []JobRef
	for _, inv := range invs {
		procs := make([]string, len(inv.Procs))
		copy(procs, inv.Procs)
		sort.SliceStable(procs, func(i, j int) bool {
			ri, rj := rank[procs[i]], rank[procs[j]]
			if ri != rj {
				return ri < rj
			}
			return procs[i] < procs[j]
		})
		for _, p := range procs {
			counts[p]++
			out = append(out, JobRef{Proc: p, K: counts[p], Time: inv.Time})
		}
	}
	return out
}

// Hyperperiod returns the LCM of the periods of all processes (using the
// user period for sporadic processes replaced by servers when substitute is
// non-nil; pass nil to use raw periods).
func Hyperperiod(net *Network, substitute map[string]Time) (Time, error) {
	var periods []Time
	for _, p := range net.Processes() {
		t := p.Period()
		if substitute != nil {
			if s, ok := substitute[p.Name]; ok {
				t = s
			}
		}
		if t.Sign() <= 0 {
			return rational.Zero, fmt.Errorf("core: process %q has non-positive period %v", p.Name, t)
		}
		periods = append(periods, t)
	}
	if len(periods) == 0 {
		return rational.Zero, fmt.Errorf("core: network %q has no processes", net.Name)
	}
	return rational.LcmAllCached(periods), nil
}

// splitmix64 is a tiny deterministic pseudo-random generator (Steele,
// Lea & Flood, "Fast Splittable Pseudorandom Number Generators"). It
// replaces math/rand in this package: the deterministic compile pipeline
// must not depend on global or wall-clock-seeded randomness, and the
// fppnlint-go vettool enforces that ban. Seeded identically, it yields the
// same tie-break sequence on every platform.
type splitmix64 struct{ state uint64 }

func newSplitmix64(seed uint64) *splitmix64 {
	// Offset the seed so that seed 0 does not start at the fixed point.
	return &splitmix64{state: seed + 0x9e3779b97f4a7c15}
}

func (s *splitmix64) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform pseudo-random int in [0, n); n must be positive.
func (s *splitmix64) Intn(n int) int {
	if n <= 0 {
		panic("core: splitmix64.Intn with non-positive n")
	}
	return int(s.next() % uint64(n))
}

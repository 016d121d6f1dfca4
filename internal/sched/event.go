package sched

// Event-driven list-scheduling core. The task graph carries its timing on
// one integer timescale (taskgraph.TaskGraph.Ticks — every arrival, WCET
// and deadline a whole number of int64 ticks), and the engine drives the
// simulation on those ticks with three heaps and one presorted walk:
//
//   - the arrival order, the job indices sorted once per task graph by
//     (arrival tick, job index) and walked front to back,
//   - a completion min-heap of running jobs keyed by (finish tick, index),
//   - a ready queue keyed by the precomputed SP rank (a min-heap over the
//     rank permutation, so the pop order is exactly the rank-then-index
//     order of the list-scheduling rule), and
//   - an idle-processor min-heap keyed by processor index (the best ready
//     job goes to the lowest-indexed idle processor).
//
// Every decision is O(log n). Decision instants at which a rescanning
// scheduler would dispatch nothing (an arrival whose predecessors are
// still running) are skipped implicitly — they change no assignment —
// except that all arrival events still feed the next-event computation, so
// the stall diagnostic fires at the instant a rescanning scheduler would
// report. The differential suite in internal/integration holds the engine
// to an exact-rational rescanning oracle.
//
// The precomputation also covers everything the portfolio lanes can share
// across heuristics: the tick table, the predecessor counts and the
// arrival order, computed once per task graph instead of once per lane
// (see RunPortfolio).

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/taskgraph"
)

// precomp is the per-task-graph state shared by every heuristic lane: the
// tick table, the predecessor counts and the arrival order. It is
// read-only after construction — engine runs copy npred — so the
// portfolio lanes reuse one instance.
type precomp struct {
	tg    *taskgraph.TaskGraph
	jt    *taskgraph.JobTicks
	npred []int32 // |Pred(i)|, the engine's countdown template
	// arrivals lists the job indices by (arrival tick, index): the order
	// in which the engine releases them.
	arrivals []int32
}

// newPrecomp reads the task graph's tick table; the error is the graph's
// *taskgraph.TimescaleError when its timing does not fit.
func newPrecomp(tg *taskgraph.TaskGraph) (*precomp, error) {
	jt, err := tg.Ticks()
	if err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	pc := &precomp{tg: tg, jt: jt, npred: make([]int32, len(tg.Jobs))}
	for i := range pc.npred {
		pc.npred[i] = int32(len(tg.Pred[i]))
	}
	pc.arrivals = sortedByKey(jt.Arrival)
	return pc, nil
}

// blevelTicks computes the b-levels (longest WCET chain from the job to a
// sink, inclusive) on the integer timescale, mirroring blevels.
func (pc *precomp) blevelTicks() []int64 {
	n := len(pc.jt.WCET)
	bl := make([]int64, n)
	for i := n - 1; i >= 0; i-- {
		best := int64(0)
		for _, s := range pc.tg.Succ[i] {
			if bl[s] > best {
				best = bl[s]
			}
		}
		bl[i] = pc.jt.WCET[i] + best
	}
	return bl
}

// rankFor computes the SP rank permutation of the heuristic on the integer
// timescale: rank[i] is the position of job i in the key-then-index order.
// Tick keys are the rational keys scaled by the (positive) timescale
// denominator, so the order is the one the rational keys induce.
func (pc *precomp) rankFor(h Heuristic) []int32 {
	n := len(pc.jt.Arrival)
	key := make([]int64, n)
	switch h {
	case ALAPEDF:
		w, _ := pc.tg.Windows() // the tick table already lowered in newPrecomp
		copy(key, w.ALAP)
	case BLevel:
		for i, b := range pc.blevelTicks() {
			key[i] = -b // longer path first
		}
	case DeadlineMonotonic:
		for i := range key {
			key[i] = pc.jt.Deadline[i] - pc.jt.Arrival[i]
		}
	case EDF:
		copy(key, pc.jt.Deadline)
	default:
		panic(fmt.Sprintf("sched: unknown heuristic %d", int(h)))
	}
	rank := make([]int32, n)
	for r, i := range sortedByKey(key) {
		rank[i] = int32(r)
	}
	return rank
}

// sortedByKey returns the indices of key ordered by (key, index), the
// identity permutation sorted stably by key. Keys already in order, as the
// arrivals of a derived graph are, return the identity after one check.
// Otherwise least-significant-byte radix passes sort them, skipping each
// byte position at which every key agrees.
func sortedByKey(key []int64) []int32 {
	n := len(key)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	if slices.IsSorted(key) {
		return idx
	}
	// Flipping the sign bit orders the keys as unsigned integers.
	digit := func(k int64, shift int) byte { return byte((uint64(k) ^ 1<<63) >> shift) }
	var counts [8][256]int
	for _, k := range key {
		for b := range counts {
			counts[b][digit(k, 8*b)]++
		}
	}
	tmp := make([]int32, n)
	for b := range counts {
		c, shift := &counts[b], 8*b
		if c[digit(key[0], shift)] == n {
			continue
		}
		sum := 0
		for d, k := range c {
			c[d], sum = sum, sum+k
		}
		for _, i := range idx {
			d := digit(key[i], shift)
			tmp[c[d]] = i
			c[d]++
		}
		idx, tmp = tmp, idx
	}
	return idx
}

// tickEvent is a heap entry: a job's completion instant.
type tickEvent struct {
	t  int64
	id int32
}

// tickHeap is a binary min-heap of events ordered by (t, id).
type tickHeap []tickEvent

func (h *tickHeap) push(e tickEvent) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].t < s[i].t || (s[p].t == s[i].t && s[p].id <= s[i].id) {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *tickHeap) pop() tickEvent {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	s = s[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(s) && (s[l].t < s[least].t || (s[l].t == s[least].t && s[l].id < s[least].id)) {
			least = l
		}
		if r < len(s) && (s[r].t < s[least].t || (s[r].t == s[least].t && s[r].id < s[least].id)) {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
}

// minHeap32 is a binary min-heap of int32 keys: SP ranks for the ready
// queue, processor indices for the idle pool.
type minHeap32 []int32

func (h *minHeap32) push(v int32) {
	*h = append(*h, v)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *minHeap32) pop() int32 {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	s = s[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(s) && s[l] < s[least] {
			least = l
		}
		if r < len(s) && s[r] < s[least] {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
}

// listSchedule runs the event-driven simulation for one heuristic lane,
// reusing the shared lowering. rank must come from pc.rankFor. The starts
// are ticks of the task graph's table.
func (pc *precomp) listSchedule(m int, h Heuristic, rank []int32) (*Schedule, error) {
	if m < 1 {
		return nil, fmt.Errorf("sched: %d processors", m)
	}
	tg := pc.tg
	n := len(tg.Jobs)

	rankToJob := make([]int32, n)
	for i, r := range rank {
		rankToJob[r] = int32(i)
	}
	npred := append([]int32(nil), pc.npred...)
	arrived := make([]bool, n)
	assign := make([]Assignment, n)

	// pending is the tail of the arrival order still to come.
	pending := pc.arrivals
	runH := make(tickHeap, 0, n)
	readyH := make(minHeap32, 0, n)
	idleH := make(minHeap32, 0, m)
	for p := 0; p < m; p++ {
		idleH = append(idleH, int32(p)) // ascending: already a valid heap
	}

	// complete finalizes one finished job: its processor rejoins the idle
	// pool and each successor's countdown drops; a successor that has also
	// arrived becomes ready. Effects apply at the *next* dispatch, as if
	// readiness were recomputed per instant.
	complete := func(i int32) {
		idleH.push(int32(assign[i].Proc))
		for _, s := range tg.Succ[i] {
			npred[s]--
			if npred[s] == 0 && arrived[s] {
				readyH.push(rank[s])
			}
		}
	}

	t := int64(0)
	scheduled := 0
	for scheduled < n {
		// Completions and arrivals due by the current instant.
		for len(runH) > 0 && runH[0].t <= t {
			complete(runH.pop().id)
		}
		for len(pending) > 0 && pc.jt.Arrival[pending[0]] <= t {
			i := pending[0]
			pending = pending[1:]
			arrived[i] = true
			if npred[i] == 0 {
				readyH.push(rank[i])
			}
		}
		// Dispatch: highest-SP ready job onto lowest-indexed idle
		// processor, repeated while both queues are non-empty.
		for len(readyH) > 0 && len(idleH) > 0 {
			i := rankToJob[readyH.pop()]
			p := idleH.pop()
			assign[i] = Assignment{Proc: int(p), Start: t}
			runH.push(tickEvent{t: t + pc.jt.WCET[i], id: i})
			scheduled++
		}
		if scheduled == n {
			break
		}
		// Advance to the earliest strictly-future event. A zero-WCET job
		// dispatched at t completes at t, which is not a future instant, so
		// drain such completions here (their effects wait for the next
		// dispatch either way) and stall if nothing lies ahead.
		for len(runH) > 0 && runH[0].t <= t {
			complete(runH.pop().id)
		}
		next := int64(math.MaxInt64)
		if len(runH) > 0 {
			next = runH[0].t
		}
		if len(pending) > 0 && pc.jt.Arrival[pending[0]] < next {
			next = pc.jt.Arrival[pending[0]]
		}
		if next == math.MaxInt64 {
			return nil, fmt.Errorf("sched: scheduler stalled at %v with %d/%d jobs placed",
				pc.jt.Scale.FromTicks(t), scheduled, n)
		}
		t = next
	}

	return &Schedule{TG: tg, M: m, Assign: assign, Heuristic: h}, nil
}

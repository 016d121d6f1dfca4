package sched

// Event-driven list-scheduling core. The task graph carries its timing on
// one integer timescale (taskgraph.TaskGraph.Ticks — every arrival, WCET
// and deadline a whole number of int64 ticks), and the engine drives the
// simulation on those ticks with four queues:
//
//   - a future-arrival min-heap keyed by (arrival tick, job index),
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
// The precomputation also covers everything the portfolio race can share
// across heuristics: predecessor counts, ALAP completion times, b-levels
// and the per-heuristic rank permutations — computed once per task graph
// instead of once per lane (see RunPortfolio).

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/taskgraph"
)

// precomp is the per-task-graph state shared by every heuristic lane: the
// tick table and the predecessor counts. It is read-only after
// construction — engine runs copy npred — so concurrent portfolio lanes
// can share one instance.
type precomp struct {
	tg    *taskgraph.TaskGraph
	jt    *taskgraph.JobTicks
	npred []int32 // |Pred(i)|, the engine's countdown template
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
	return pc, nil
}

// alapTicks computes the ALAP completion times D'_i on the integer
// timescale: D'_i = min(D_i, min_{j ∈ Succ(i)} D'_j − C_j). Scaling is
// strictly monotone, so the induced order equals taskgraph.ALAP's.
func (pc *precomp) alapTicks() []int64 {
	n := len(pc.jt.Deadline)
	alap := make([]int64, n)
	for i := n - 1; i >= 0; i-- {
		t := pc.jt.Deadline[i]
		for _, s := range pc.tg.Succ[i] {
			if c := alap[s] - pc.jt.WCET[s]; c < t {
				t = c
			}
		}
		alap[i] = t
	}
	return alap
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
		copy(key, pc.alapTicks())
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
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		ka, kb := key[idx[a]], key[idx[b]]
		if ka != kb {
			return ka < kb
		}
		return idx[a] < idx[b] // <_J order breaks ties
	})
	rank := make([]int32, n)
	for r, i := range idx {
		rank[i] = int32(r)
	}
	return rank
}

// tickEvent is a heap entry: a job's arrival or completion instant.
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
// reusing the shared lowering. rank must come from pc.rankFor.
func (pc *precomp) listSchedule(m int, h Heuristic, rank []int32) (*Schedule, error) {
	s, _, err := pc.listScheduleTicks(m, h, rank)
	return s, err
}

// listScheduleTicks additionally returns the start instants in ticks, so
// portfolio lanes can feed validateTicks without lowering the schedule.
func (pc *precomp) listScheduleTicks(m int, h Heuristic, rank []int32) (*Schedule, []int64, error) {
	if m < 1 {
		return nil, nil, fmt.Errorf("sched: %d processors", m)
	}
	tg := pc.tg
	n := len(tg.Jobs)

	rankToJob := make([]int32, n)
	for i, r := range rank {
		rankToJob[r] = int32(i)
	}
	npred := append([]int32(nil), pc.npred...)
	arrived := make([]bool, n)
	startT := make([]int64, n)
	procOf := make([]int32, n)

	// Arrival heap over all jobs. Jobs are in <_J order and arrivals are
	// non-decreasing in most graphs, but heapify regardless: build by
	// sift-down over the filled slice.
	arrH := make(tickHeap, n)
	for i := 0; i < n; i++ {
		arrH[i] = tickEvent{t: pc.jt.Arrival[i], id: int32(i)}
	}
	for i := n/2 - 1; i >= 0; i-- {
		siftDownTick(arrH, i)
	}
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
		idleH.push(procOf[i])
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
		for len(arrH) > 0 && arrH[0].t <= t {
			i := arrH.pop().id
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
			startT[i] = t
			procOf[i] = p
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
		if len(arrH) > 0 && arrH[0].t < next {
			next = arrH[0].t
		}
		if next == math.MaxInt64 {
			return nil, nil, fmt.Errorf("sched: scheduler stalled at %v with %d/%d jobs placed",
				pc.jt.Scale.FromTicks(t), scheduled, n)
		}
		t = next
	}

	assign := make([]Assignment, n)
	for i := 0; i < n; i++ {
		assign[i] = Assignment{Proc: int(procOf[i]), Start: pc.jt.Scale.FromTicks(startT[i])}
	}
	return &Schedule{TG: tg, M: m, Assign: assign, Heuristic: h}, startT, nil
}

// validateTicks checks the feasibility constraints of Definition 3.2 on the
// tick table, given the schedule's start instants in ticks (see
// Schedule.Validate for the constraints). The schedule has one assignment
// per job.
func validateTicks(s *Schedule, jt *taskgraph.JobTicks, startT []int64) error {
	tg := s.TG
	for i, j := range tg.Jobs {
		if p := s.Assign[i].Proc; p < 0 || p >= s.M {
			return fmt.Errorf("sched: job %s mapped to processor %d of %d", j.Name(), p, s.M)
		}
		if startT[i] < jt.Arrival[i] {
			return fmt.Errorf("sched: job %s starts at %v before arrival %v",
				j.Name(), jt.Scale.FromTicks(startT[i]), j.Arrival)
		}
		if startT[i]+jt.WCET[i] > jt.Deadline[i] {
			return fmt.Errorf("sched: job %s misses deadline: ends %v > %v",
				j.Name(), jt.Scale.FromTicks(startT[i]+jt.WCET[i]), j.Deadline)
		}
	}
	// Checking the transitively reduced successor lists suffices for the
	// full precedence relation: every removed edge is implied by a kept
	// chain, and e_i <= s_j composes along chains.
	for i, succs := range tg.Succ {
		for _, j := range succs {
			if startT[j] < startT[i]+jt.WCET[i] {
				return fmt.Errorf("sched: precedence %s -> %s violated",
					tg.Jobs[i].Name(), tg.Jobs[j].Name())
			}
		}
	}
	// Mutual exclusion per processor.
	byProc := make([][]int32, s.M)
	for i := range tg.Jobs {
		byProc[s.Assign[i].Proc] = append(byProc[s.Assign[i].Proc], int32(i))
	}
	for p, jobs := range byProc {
		sort.Slice(jobs, func(a, b int) bool {
			sa, sb := startT[jobs[a]], startT[jobs[b]]
			if sa != sb {
				return sa < sb
			}
			return jobs[a] < jobs[b]
		})
		for i := 1; i < len(jobs); i++ {
			prev, cur := jobs[i-1], jobs[i]
			if startT[cur] < startT[prev]+jt.WCET[prev] {
				return fmt.Errorf("sched: jobs %s and %s overlap on processor %d",
					tg.Jobs[prev].Name(), tg.Jobs[cur].Name(), p)
			}
		}
	}
	return nil
}

// siftDownTick restores the heap property below index i during heapify.
func siftDownTick(s tickHeap, i int) {
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
			return
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
}

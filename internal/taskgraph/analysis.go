package taskgraph

// Section III-B's window metrics, all on the task graph's tick table
// (Ticks): one ASAP/ALAP recurrence and one corner-window sweep, read by
// Load, CheckSchedulable, the schedulability tests (internal/feas), the
// list scheduler's ALAP-EDF ranks and lint's demand and load rules.

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/rational"
)

// Windows is the task graph's tick table together with the
// precedence-adjusted windows of Section III-B, index-aligned with Jobs
// and in ticks of Scale:
//
//	A'_i = max(A_i, max_{j ∈ Pred(i)} A'_j + C_j)
//	D'_i = min(D_i, min_{j ∈ Succ(i)} D'_j − C_j)
//
// A'_i bounds job i's start from below and D'_i its completion from above
// in every feasible schedule. It is read-only.
type Windows struct {
	*JobTicks
	// ASAP holds A'_i and ALAP holds D'_i.
	ASAP, ALAP []int64
}

// Windows computes the ASAP and ALAP recurrences on the tick table; the
// error is the graph's *TimescaleError when its timing does not fit. Job
// index order is topological, so one forward and one backward pass
// suffice.
func (tg *TaskGraph) Windows() (*Windows, error) {
	jt, err := tg.Ticks()
	if err != nil {
		return nil, err
	}
	n := len(tg.Jobs)
	w := &Windows{JobTicks: jt, ASAP: make([]int64, n), ALAP: make([]int64, n)}
	for i := 0; i < n; i++ {
		t := jt.Arrival[i]
		for _, p := range tg.Pred[i] {
			if e := w.ASAP[p] + jt.WCET[p]; e > t {
				t = e
			}
		}
		w.ASAP[i] = t
	}
	for i := n - 1; i >= 0; i-- {
		t := jt.Deadline[i]
		for _, s := range tg.Succ[i] {
			if e := w.ALAP[s] - jt.WCET[s]; e < t {
				t = e
			}
		}
		w.ALAP[i] = t
	}
	return w, nil
}

// Window is a closed window [Start, End] of the frame with the work that
// must run entirely inside it: the witness of a corner sweep.
type Window struct {
	Start, End Time
	// Demand is Σ C_i over the jobs whose window lies inside [Start, End].
	Demand Time
	// Density is Demand / (End − Start); 0 for a window without demand.
	Density rational.Rat
}

// Processors returns ⌈Density⌉, the processor count the window forces.
func (w Window) Processors() int { return int(w.Density.Ceil()) }

// Load returns a densest corner window over the precedence-adjusted
// windows (A'_i, D'_i). Its Density is the Load(TG) of Section III-B:
//
//	Load(TG) = max_{t1 < t2} ( Σ_{i : t1 <= A'_i ∧ D'_i <= t2} C_i ) / (t2 − t1)
func (w *Windows) Load() Window { return densest(w.Scale, w.ASAP, w.ALAP, w.WCET) }

// Demand returns a densest corner window over the nominal windows
// (A_i, D_i): the processor-demand criterion, which ignores precedence.
// ⌈Density⌉ processors are necessary for any schedule, preemptive or
// not; it never exceeds ⌈Load⌉, since A'_i >= A_i and D'_i <= D_i.
func (jt *JobTicks) Demand() Window {
	return densest(jt.Scale, jt.Arrival, jt.Deadline, jt.WCET)
}

// densest runs the corner sweep: job i must run inside [start_i, end_i],
// and the densest window starts at some start_i and ends at some end_j,
// so only those corners are examined. Jobs join the bucket of their end
// once the descending scan over starts passes their start, so the bucket
// prefix sums over ends <= t2 are the demand of [t1, t2] exactly. The scan
// keeps the first window, t1 descending then t2 ascending, of the
// maximum density, compared exactly as fractions; the zero Window (with
// Density 0) means no window holds positive demand.
func densest(sc rational.Scale, start, end, wcet []int64) Window {
	n := len(start)
	t1s, t2s := distinctTicks(start), distinctTicks(end)
	bucketOf := make([]int, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
		bucketOf[i], _ = slices.BinarySearch(t2s, end[i])
	}
	slices.SortFunc(order, func(x, y int) int { return cmp.Compare(start[y], start[x]) }) // descending start
	buckets := make([]int64, len(t2s))
	num, den := int64(0), int64(1)
	var best1, best2 int64
	next := 0
	for i1 := len(t1s) - 1; i1 >= 0; i1-- {
		t1 := t1s[i1]
		for next < n && start[order[next]] >= t1 {
			j := order[next]
			buckets[bucketOf[j]] += wcet[j]
			next++
		}
		cum := int64(0)
		for i2, t2 := range t2s {
			cum += buckets[i2]
			if t1 >= t2 || cum <= 0 {
				continue
			}
			if fracLess(num, den, cum, t2-t1) {
				num, den, best1, best2 = cum, t2-t1, t1, t2
			}
		}
	}
	if num == 0 {
		return Window{Density: rational.Zero}
	}
	return Window{
		Start:   sc.FromTicks(best1),
		End:     sc.FromTicks(best2),
		Demand:  sc.FromTicks(num),
		Density: rational.New(num, den),
	}
}

// fracLess reports n1/d1 < n2/d2 for non-negative numerators and positive
// denominators, exactly, via 128-bit cross multiplication.
func fracLess(n1, d1, n2, d2 int64) bool {
	h1, l1 := bits.Mul64(uint64(n1), uint64(d2))
	h2, l2 := bits.Mul64(uint64(n2), uint64(d1))
	if h1 != h2 {
		return h1 < h2
	}
	return l1 < l2
}

// distinctTicks returns the sorted distinct values.
func distinctTicks(vals []int64) []int64 {
	out := slices.Clone(vals)
	slices.Sort(out)
	return slices.Compact(out)
}

// Load returns the precedence-aware utilization metric Load(TG) of
// Section III-B (see Windows.Load); the error is the graph's
// *TimescaleError when its timing does not fit.
func (tg *TaskGraph) Load() (rational.Rat, error) {
	w, err := tg.Windows()
	if err != nil {
		return rational.Zero, err
	}
	return w.Load().Density, nil
}

// CheckSchedulable verifies the necessary condition of Proposition 3.1 for
// m processors: every job fits its ASAP/ALAP window (A'_i + C_i <= D'_i)
// and ⌈Load(TG)⌉ <= m. A nil result does not guarantee feasibility (the
// condition is necessary, not sufficient).
func (tg *TaskGraph) CheckSchedulable(m int) error {
	if m < 1 {
		return fmt.Errorf("taskgraph: %d processors", m)
	}
	w, err := tg.Windows()
	if err != nil {
		return err
	}
	for i, j := range tg.Jobs {
		if w.ASAP[i]+w.WCET[i] > w.ALAP[i] {
			return fmt.Errorf("taskgraph: job %s cannot fit its window: A'=%v + C=%v > D'=%v",
				j.Name(), w.Scale.FromTicks(w.ASAP[i]), j.WCET, w.Scale.FromTicks(w.ALAP[i]))
		}
	}
	load := w.Load()
	if need := load.Processors(); need > m {
		return fmt.Errorf("taskgraph: load %.3f needs at least %d processors, have %d",
			load.Density.Float64(), need, m)
	}
	return nil
}

package taskgraph

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// Property: the hyperperiod is an exact integer multiple of every process
// period, and the job count of each periodic process is burst·H/T.
func TestHyperperiodDivisibilityProperty(t *testing.T) {
	t.Parallel()
	prop := func(p1, p2, p3 uint8, b uint8) bool {
		periods := []int64{
			int64(p1%8+1) * 50,
			int64(p2%8+1) * 50,
			int64(p3%8+1) * 50,
		}
		burst := int(b%3) + 1
		n := core.NewNetwork("prop")
		names := []string{"a", "b", "c"}
		for i, T := range periods {
			if i == 0 {
				n.AddMultiPeriodic(names[i], burst, ms(T), ms(T), ms(1), nil)
			} else {
				n.AddPeriodic(names[i], ms(T), ms(T), ms(1), nil)
			}
		}
		tg, err := Derive(n)
		if err != nil {
			return false
		}
		counts := map[string]int64{}
		for _, j := range tg.Jobs {
			counts[j.Proc]++
		}
		for i, T := range periods {
			q := tg.Hyperperiod.Div(ms(T))
			if !q.IsInt() || q.Sign() <= 0 {
				return false
			}
			want := q.Num()
			if i == 0 {
				want *= int64(burst)
			}
			if counts[names[i]] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: deadline truncation never produces a deadline beyond H (+slack)
// nor before the arrival... (the latter can only happen when the original
// deadline is tiny; then Prop 3.1 rejects, but the tuple stays ordered).
func TestDeadlineTruncationProperty(t *testing.T) {
	t.Parallel()
	prop := func(dRaw uint16) bool {
		d := int64(dRaw%1500) + 10
		n := core.NewNetwork("trunc")
		n.AddPeriodic("p", ms(200), ms(d), ms(1), nil)
		n.AddPeriodic("q", ms(400), ms(400), ms(1), nil)
		n.Connect("p", "q", "c", core.FIFO)
		n.Priority("p", "q")
		tg, err := Derive(n)
		if err != nil {
			return false
		}
		for _, j := range tg.Jobs {
			if tg.Hyperperiod.Less(j.Deadline) {
				return false
			}
			if j.Deadline.Less(j.Arrival) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: ASAP never decreases along an edge and ALAP never increases
// backwards (monotonicity of the fixed-point recurrences).
func TestASAPALAPMonotoneProperty(t *testing.T) {
	t.Parallel()
	prop := func(seed uint8) bool {
		n := core.NewNetwork("mono")
		n.AddPeriodic("a", ms(100), ms(100), ms(int64(seed%20)+1), nil)
		n.AddPeriodic("b", ms(200), ms(200), ms(int64(seed%15)+1), nil)
		n.AddPeriodic("c", ms(200), ms(200), ms(int64(seed%10)+1), nil)
		n.Connect("a", "b", "ab", core.FIFO)
		n.Connect("b", "c", "bc", core.FIFO)
		n.Priority("a", "b")
		n.Priority("b", "c")
		tg, err := Derive(n)
		if err != nil {
			return false
		}
		w, err := tg.Windows()
		if err != nil {
			return false
		}
		for _, e := range tg.Edges() {
			from, to := e[0], e[1]
			if w.ASAP[to] < w.ASAP[from]+w.WCET[from] {
				return false
			}
			if w.ALAP[to]-w.WCET[to] < w.ALAP[from] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

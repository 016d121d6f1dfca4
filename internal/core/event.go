package core

import (
	"fmt"
	"sort"

	"repro/internal/rational"
)

// Time is an exact rational time stamp or duration, in seconds.
// Use rational.Milli(n) for millisecond values.
type Time = rational.Rat

// GenKind enumerates the event-generator types of the FPPN model.
type GenKind int

const (
	// Periodic generators produce bursts of Burst simultaneous events at
	// times 0, T, 2T, ... ("multi-periodic" in the paper when Burst > 1).
	Periodic GenKind = iota
	// Sporadic generators produce at most Burst events in any half-open
	// interval of length T; event times arrive online.
	Sporadic
)

// String returns the generator-kind name.
func (k GenKind) String() string {
	switch k {
	case Periodic:
		return "periodic"
	case Sporadic:
		return "sporadic"
	default:
		return fmt.Sprintf("GenKind(%d)", int(k))
	}
}

// Generator is an event generator e, parameterized by burst size m_e and
// period T_e, with a relative deadline d_e bounding the interval
// [τ_k, τ_k+d_e] in which the k-th invocation may access its external I/O.
type Generator struct {
	Kind     GenKind
	Period   Time // T_e > 0
	Burst    int  // m_e >= 1
	Deadline Time // d_e > 0
}

// Validate checks the generator parameters.
func (g Generator) Validate() error {
	if g.Period.Sign() <= 0 {
		return fmt.Errorf("period %v is not positive", g.Period)
	}
	if g.Burst < 1 {
		return fmt.Errorf("burst size %d is not positive", g.Burst)
	}
	if g.Deadline.Sign() <= 0 {
		return fmt.Errorf("deadline %v is not positive", g.Deadline)
	}
	return nil
}

// String formats the generator the way the paper's figures annotate
// processes, e.g. "200ms" or "2 per 700ms".
func (g Generator) String() string {
	period := g.Period.MulInt(1000).String() + "ms"
	prefix := ""
	if g.Burst > 1 {
		prefix = fmt.Sprintf("%d per ", g.Burst)
	}
	if g.Kind == Sporadic {
		return "sporadic " + prefix + period
	}
	return prefix + period
}

// CheckSporadic verifies that the sorted sequence of event time stamps
// respects the sporadic constraint: at most Burst events in any half-open
// interval of length Period. Negative time stamps are rejected; equal time
// stamps are allowed (simultaneous events) as long as the burst bound holds.
func (g Generator) CheckSporadic(times []Time) error {
	if g.Kind != Sporadic {
		return fmt.Errorf("generator is %v, not sporadic", g.Kind)
	}
	if !sort.SliceIsSorted(times, func(i, j int) bool { return times[i].Less(times[j]) }) {
		return fmt.Errorf("sporadic event times are not sorted")
	}
	for i, t := range times {
		if t.Sign() < 0 {
			return fmt.Errorf("sporadic event time %v is negative", t)
		}
		// Count events in [t_i, t_i + T). Since every interval of
		// length T containing > m events contains one starting at an
		// event, checking windows anchored at events is sufficient.
		end := t.Add(g.Period)
		n := 0
		for j := i; j < len(times) && times[j].Less(end); j++ {
			n++
		}
		if n > g.Burst {
			return fmt.Errorf("%d sporadic events in [%v, %v), more than burst size %d",
				n, t, end, g.Burst)
		}
	}
	return nil
}

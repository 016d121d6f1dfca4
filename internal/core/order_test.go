package core

import (
	"strings"
	"testing"

	"repro/internal/rational"
)

// TestJobOrderRejectsTimingBeyondGuard pins the order's guards with
// errors naming the network: a hyperperiod beyond rational.MaxTick ticks
// (two jobs that the exact-rational order could list), a frame of more
// than MaxFrameJobs jobs, a horizon and a sporadic event beyond the
// order's tick range, and more frames than the order can hold.
func TestJobOrderRejectsTimingBeyondGuard(t *testing.T) {
	wide := NewNetwork("wide")
	wide.AddPeriodic("a", rational.FromInt(1<<41), rational.FromInt(1<<41), ms(1), NopBehavior)
	wide.AddPeriodic("b", rational.FromInt(1<<41), rational.FromInt(1<<41), ms(1), NopBehavior)
	wide.Priority("a", "b")

	dense := NewNetwork("dense")
	dense.AddPeriodic("fast", rational.New(1, MaxFrameJobs), rational.New(1, MaxFrameJobs), rational.New(1, 2*MaxFrameJobs), NopBehavior)
	dense.AddPeriodic("slow", rational.One, rational.One, ms(1), NopBehavior)
	dense.Priority("fast", "slow")

	fine := NewNetwork("fine")
	fine.AddPeriodic("p", rational.FromInt(1<<40), rational.FromInt(1<<40), ms(1), NopBehavior)
	fine.AddSporadic("s", 1, rational.FromInt(1<<40), rational.FromInt(1<<40), ms(1), NopBehavior)
	fine.ConnectInit("s", "p", "sp", 0)
	fine.Priority("s", "p")

	tiny := NewNetwork("tiny")
	tiny.AddPeriodic("p", rational.One, rational.One, ms(1), NopBehavior)

	for _, tc := range []struct {
		net     *Network
		horizon Time
		events  map[string][]Time
		want    string
	}{
		{wide, rational.FromInt(1 << 41), nil, "hyperperiod"},
		{dense, rational.One, nil, "more than 1048576 jobs"},
		{fine, rational.FromInt(1 << 62).Add(rational.FromInt(1<<62 - 1)), nil, "horizon"},
		{fine, rational.FromInt(1 << 41), map[string][]Time{"s": {rational.FromInt(1 << 62).Add(rational.One)}}, "sporadic event"},
		{tiny, rational.FromInt(1 << 62), nil, "more than 4294967296 jobs"},
	} {
		rank, err := tc.net.FPRank(-1)
		if err != nil {
			t.Fatal(err)
		}
		_, err = JobOrder(tc.net, rank, tc.horizon, tc.events)
		if err == nil || !strings.Contains(err.Error(), tc.net.Name) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s over %v: error %v, want one naming the network and %q", tc.net.Name, tc.horizon, err, tc.want)
		}
	}
	if _, err := JobOrderFrames(fine, []int{1, 0}, 1<<23, nil); err == nil || !strings.Contains(err.Error(), "8388608 hyperperiods") {
		t.Errorf("fine over 2^23 frames: error %v, want the frame-count guard", err)
	}
}

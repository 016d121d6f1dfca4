package feas

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/rational"
	"repro/internal/taskgraph"
)

// Arrivals near the int64 ceiling used to reach an exact-rational
// fallback whose overflow panicked. The timescale guard now rejects the
// graph before any test runs: Analyze must return the typed error, never
// panic.
func TestAnalyzeOverflowReturnsError(t *testing.T) {
	huge := rational.New(int64(1)<<62, 1)
	tg := &taskgraph.TaskGraph{Hyperperiod: huge}
	for i := 0; i < 3; i++ {
		tg.Jobs = append(tg.Jobs, &taskgraph.Job{
			Index: i, Proc: "p", K: int64(i + 1),
			Arrival:  huge,
			Deadline: huge.Add(rational.New(10, 1)),
			WCET:     rational.New(1, 1),
		})
		tg.Succ = append(tg.Succ, nil)
		tg.Pred = append(tg.Pred, nil)
	}
	rep, err := Analyze(tg, 2, Options{})
	if err == nil {
		t.Fatalf("Analyze accepted an overflowing task graph: rep=%v", rep)
	}
	var te *taskgraph.TimescaleError
	if !errors.As(err, &te) || te.Kind != "job" || te.Subject != "p[1]" {
		t.Fatalf("error %v, want the timescale error naming job p[1]", err)
	}
	if !strings.HasPrefix(err.Error(), "feas: ") {
		t.Errorf("error %q lacks the feas prefix", err)
	}
	if rep != nil {
		t.Fatalf("non-nil report alongside the error: %v", rep)
	}
}

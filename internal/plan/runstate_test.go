package plan

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/apps/signal"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

func signalPlan(t *testing.T) *Plan {
	t.Helper()
	tg, err := taskgraph.Derive(signal.New())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.FindFeasible(tg, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRunStateReleaseIsIdempotent pins the pool hand-back contract: the
// first Release after checkout performs the hand-back, every further one is
// a no-op, and Acquire re-arms the cycle.
func TestRunStateReleaseIsIdempotent(t *testing.T) {
	t.Parallel()
	rs := signalPlan(t).NewRunState()

	if rs.Released() {
		t.Fatal("fresh state reports Released")
	}
	if !rs.Release() {
		t.Fatal("first Release rejected")
	}
	if !rs.Released() {
		t.Fatal("state not marked released after Release")
	}
	if rs.Release() {
		t.Fatal("second Release accepted: double hand-back to the pool")
	}
	rs.Acquire()
	if rs.Released() {
		t.Fatal("state still released after Acquire")
	}
	if !rs.Release() {
		t.Fatal("Release after re-Acquire rejected")
	}
}

// TestRunStateReleaseOnceUnderContention releases one state from many
// goroutines at once: exactly one hand-back may win, whatever the
// interleaving — otherwise a pool would deliver the same state twice.
func TestRunStateReleaseOnceUnderContention(t *testing.T) {
	t.Parallel()
	rs := signalPlan(t).NewRunState()
	const releasers = 16
	wins := make(chan bool, releasers)
	var wg sync.WaitGroup
	for i := 0; i < releasers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wins <- rs.Release()
		}()
	}
	wg.Wait()
	close(wins)
	won := 0
	for ok := range wins {
		if ok {
			won++
		}
	}
	if won != 1 {
		t.Fatalf("%d of %d concurrent Release calls won; want exactly 1", won, releasers)
	}
}

// TestRunOnReleasedStateFails pins the use-after-release guard: a state
// parked in a pool must refuse to run until re-acquired.
func TestRunOnReleasedStateFails(t *testing.T) {
	t.Parallel()
	rs := signalPlan(t).NewRunState()
	cfg := Config{Frames: 1}
	if _, err := rs.Run(cfg); err != nil {
		t.Fatalf("run on fresh state: %v", err)
	}
	rs.Release()
	if _, err := rs.Run(cfg); err == nil || !strings.Contains(err.Error(), "pool") {
		t.Fatalf("Run on released state: err = %v, want pool guard", err)
	}
	if _, err := rs.RunConcurrent(cfg); err == nil || !strings.Contains(err.Error(), "pool") {
		t.Fatalf("RunConcurrent on released state: err = %v, want pool guard", err)
	}
	rs.Acquire()
	if _, err := rs.Run(cfg); err != nil {
		t.Fatalf("run after re-Acquire: %v", err)
	}
}

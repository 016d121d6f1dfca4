package serve

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestCachePanickingCompileReleasesFlight pins that a compile which panics
// does not strand its cache key: the panic reaches the leader, a waiter
// coalesced on the flight gets an error naming it, and the next request
// for the key compiles afresh instead of blocking forever.
func TestCachePanickingCompileReleasesFlight(t *testing.T) {
	t.Parallel()
	m := &Metrics{}
	c := newCache(1<<30, m)
	key := cacheKey{digest: "panic", m: 2, heuristic: "alap-edf"}
	ok := func() (*Entry, error) { return &Entry{cost: 1, metrics: m}, nil }
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	release := make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		c.GetOrCompile(key, func() (*Entry, error) {
			<-release
			panic("boom")
		})
	}()
	waitFor("the leader's flight", func() bool { return m.Misses.Load() == 1 })
	waiter := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompile(key, ok)
		waiter <- err
	}()
	waitFor("the coalesced waiter", func() bool { return m.Coalesced.Load() == 1 })
	close(release)

	if v := <-leader; v != "boom" {
		t.Fatalf("leader recovered %v, want the compile's panic", v)
	}
	select {
	case err := <-waiter:
		if err == nil || !strings.Contains(err.Error(), "panicked: boom") {
			t.Fatalf("waiter error %v, want one naming the panic", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("coalesced waiter still blocked 2 s after the compile panicked")
	}

	type result struct {
		hit bool
		err error
	}
	next := make(chan result, 1)
	go func() {
		_, hit, err := c.GetOrCompile(key, ok)
		next <- result{hit, err}
	}()
	select {
	case r := <-next:
		if r.hit || r.err != nil {
			t.Fatalf("next request: hit=%v err=%v, want a fresh compile", r.hit, r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("next request on the key still blocked 2 s after the compile panicked")
	}
	c.mu.Lock()
	inflight := len(c.inflight)
	c.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("%d flights left in flight", inflight)
	}
}

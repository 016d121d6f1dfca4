package parallel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	t.Parallel()
	if Workers(3) != 3 {
		t.Fatal("explicit worker count not honoured")
	}
	if Workers(0) < 1 || Workers(-5) < 1 {
		t.Fatal("defaulted worker count must be positive")
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 1000
		var hits [n]atomic.Int32
		err := ForEach(nil, n, workers, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestMapOrderedCollection(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 4, 16} {
		got, err := Map(nil, 257, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestLowestIndexErrorWins(t *testing.T) {
	t.Parallel()
	// Sequential reference: the loop stops at index 3.
	fail := func(i int) error {
		if i == 3 || i == 7 || i == 900 {
			return fmt.Errorf("unit %d failed", i)
		}
		return nil
	}
	want := ForEach(nil, 1000, 1, fail)
	if want == nil || want.Error() != "unit 3 failed" {
		t.Fatalf("sequential reference error = %v", want)
	}
	for _, workers := range []int{2, 8, 32} {
		got := ForEach(nil, 1000, workers, fail)
		if got == nil || got.Error() != want.Error() {
			t.Fatalf("workers=%d: error %v, want %v", workers, got, want)
		}
	}
}

func TestContextCancellationStopsDispatch(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForEach(ctx, 100000, 4, func(i int) error {
		if ran.Add(1) == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 100000 {
		t.Fatalf("cancellation did not stop dispatch (%d units ran)", n)
	}
}

func TestFnErrorOutranksCancellation(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("boom")
	err := ForEach(ctx, 1000, 4, func(i int) error {
		if i == 0 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want the unit error", err)
	}
}

func TestEmptyRangeIsNoOp(t *testing.T) {
	t.Parallel()
	if err := ForEach(nil, 0, 4, func(int) error { t.Fatal("ran"); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := ForEach(nil, -3, 4, func(int) error { t.Fatal("ran"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// panicUnit is a named frame for the worker-stack assertion below.
func panicUnit(i int) error {
	if i == 5 || i == 9 {
		panic(fmt.Sprintf("unit %d exploded", i))
	}
	return nil
}

// TestWorkerPanicReachesCaller runs units on four worker goroutines; two
// of them panic. The caller's recover must get the lowest-index panic with
// its value and the worker's stack, after every worker has returned.
func TestWorkerPanicReachesCaller(t *testing.T) {
	t.Parallel()
	var got any
	func() {
		defer func() { got = recover() }()
		_ = ForEach(nil, 64, 4, panicUnit)
	}()
	pe, ok := got.(*PanicError)
	if !ok {
		t.Fatalf("recovered %T (%v), want *PanicError", got, got)
	}
	if pe.Index != 5 || pe.Value != "unit 5 exploded" {
		t.Errorf("recovered unit %d value %v, want unit 5 exploded", pe.Index, pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "panicUnit") {
		t.Errorf("worker stack does not show the panicking frame:\n%s", pe.Stack)
	}
	if msg := pe.Error(); !strings.Contains(msg, "unit 5 exploded") || !strings.Contains(msg, "panicUnit") {
		t.Errorf("panic message lacks the value or the stack:\n%s", msg)
	}

	// Map fans out through ForEach and inherits the re-raise.
	got = nil
	func() {
		defer func() { got = recover() }()
		_, _ = Map(nil, 8, 4, func(i int) (int, error) { return i, panicUnit(i + 5) })
	}()
	if pe, ok := got.(*PanicError); !ok || pe.Index != 0 {
		t.Errorf("Map: recovered %v, want the unit-0 *PanicError", got)
	}
}

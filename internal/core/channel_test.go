package core

import (
	"testing"
	"testing/quick"
)

func TestFIFOSemantics(t *testing.T) {
	f := &fifoState{}
	if _, ok := f.read(); ok {
		t.Error("read from empty FIFO returned data")
	}
	f.write(1)
	f.write(2)
	f.write(3)
	if f.len() != 3 {
		t.Errorf("len = %d, want 3", f.len())
	}
	for want := 1; want <= 3; want++ {
		v, ok := f.read()
		if !ok || v.(int) != want {
			t.Errorf("read = (%v, %v), want (%d, true)", v, ok, want)
		}
	}
	if _, ok := f.read(); ok {
		t.Error("FIFO not empty after draining")
	}
}

func TestFIFOReset(t *testing.T) {
	f := &fifoState{}
	f.write("a")
	f.reset()
	if f.len() != 0 {
		t.Error("reset did not empty FIFO")
	}
	if got := f.snapshot(); len(got) != 0 {
		t.Errorf("snapshot after reset = %v", got)
	}
}

func TestFIFOSnapshotIsCopy(t *testing.T) {
	f := &fifoState{}
	f.write(1)
	f.write(2)
	snap := f.snapshot()
	snap[0] = 99
	v, _ := f.read()
	if v.(int) != 1 {
		t.Error("snapshot mutation affected FIFO content")
	}
}

// Property: a FIFO preserves order and multiplicity (queue axioms), both
// when filled before draining and under interleaved reads, writes and
// resets checked against a slice model. The interleaved case is what makes
// the ring wrap, so it also covers grow copying out a ring whose head is
// not at index 0.
func TestFIFOQueueProperty(t *testing.T) {
	fillThenDrain := func(values []int) bool {
		f := &fifoState{}
		for _, v := range values {
			f.write(v)
		}
		for _, want := range values {
			v, ok := f.read()
			if !ok || v.(int) != want {
				return false
			}
		}
		_, ok := f.read()
		return !ok
	}
	if err := quick.Check(fillThenDrain, nil); err != nil {
		t.Error(err)
	}

	wrappedGrowths := 0
	// Each op byte is a reset (op%8 == 7), a read (op%3 == 0) or a write
	// of the op's position.
	interleaved := func(ops []byte) bool {
		f := &fifoState{}
		var model []int
		for i, op := range ops {
			switch {
			case op%8 == 7:
				f.reset()
				model = model[:0]
			case op%3 == 0:
				v, ok := f.read()
				if ok != (len(model) > 0) || ok && v.(int) != model[0] {
					return false
				}
				if ok {
					model = model[1:]
				}
			default:
				if f.n == len(f.buf) && f.head != 0 {
					wrappedGrowths++
				}
				f.write(i)
				model = append(model, i)
			}
			snap := f.snapshot()
			if f.len() != len(model) || len(snap) != len(model) {
				return false
			}
			for k, v := range snap {
				if v.(int) != model[k] {
					return false
				}
			}
		}
		return true
	}
	// Three writes, two reads, five writes: the fourth of the last writes
	// finds the 4-slot ring full with head at 2.
	if !interleaved([]byte{1, 1, 1, 0, 0, 1, 1, 1, 1, 1}) {
		t.Error("wrapped-growth sequence broke queue order")
	}
	if err := quick.Check(interleaved, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
	if wrappedGrowths == 0 {
		t.Error("no write grew a wrapped ring")
	}
}

func TestBlackboardSemantics(t *testing.T) {
	b := &blackboardState{}
	if _, ok := b.read(); ok {
		t.Error("read of uninitialized blackboard returned data")
	}
	b.write(10)
	for i := 0; i < 3; i++ {
		v, ok := b.read()
		if !ok || v.(int) != 10 {
			t.Errorf("repeated read %d = (%v, %v), want (10, true)", i, v, ok)
		}
	}
	b.write(20)
	if v, _ := b.read(); v.(int) != 20 {
		t.Error("blackboard did not remember last written value")
	}
	if b.len() != 1 {
		t.Errorf("len = %d, want 1", b.len())
	}
}

func TestBlackboardInitialValue(t *testing.T) {
	b := &blackboardState{initial: 7, hasInitial: true}
	b.reset()
	v, ok := b.read()
	if !ok || v.(int) != 7 {
		t.Errorf("initialized blackboard read = (%v, %v), want (7, true)", v, ok)
	}
	b.write(8)
	b.reset()
	v, ok = b.read()
	if !ok || v.(int) != 7 {
		t.Error("reset did not restore initial value")
	}
}

func TestBlackboardResetWithoutInitial(t *testing.T) {
	b := &blackboardState{}
	b.write(5)
	b.reset()
	if _, ok := b.read(); ok {
		t.Error("reset blackboard without initial value still readable")
	}
}

func TestNewChannelState(t *testing.T) {
	f := newChannelState(&Channel{Name: "c", Kind: FIFO})
	if _, ok := f.(*fifoState); !ok {
		t.Errorf("FIFO channel state has type %T", f)
	}
	b := newChannelState(&Channel{Name: "c", Kind: Blackboard, Initial: 3, HasInitial: true})
	v, ok := b.read()
	if !ok || v.(int) != 3 {
		t.Error("blackboard channel state missing initial value")
	}
}

func TestChannelKindString(t *testing.T) {
	if FIFO.String() != "fifo" || Blackboard.String() != "blackboard" {
		t.Error("ChannelKind.String mismatch")
	}
	if ChannelKind(42).String() != "ChannelKind(42)" {
		t.Error("unknown kind String mismatch")
	}
}

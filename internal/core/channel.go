package core

import "fmt"

// Value is the type of data samples carried by channels. FPPN channel
// alphabets are application-defined, so values are dynamically typed; a
// process behaviour asserts the concrete types it expects.
type Value any

// ChannelKind enumerates the default channel types of the FPPN model.
type ChannelKind int

const (
	// FIFO is a first-in-first-out queue: every written value is read at
	// most once, in writing order. Reading an empty FIFO returns
	// ok == false (the paper's "indicator of non-availability of data").
	FIFO ChannelKind = iota
	// Blackboard remembers the last written value, which can be read any
	// number of times. Reading a never-written blackboard returns
	// ok == false.
	Blackboard
)

// String returns the channel-kind name used in diagnostics and DOT exports.
func (k ChannelKind) String() string {
	switch k {
	case FIFO:
		return "fifo"
	case Blackboard:
		return "blackboard"
	default:
		return fmt.Sprintf("ChannelKind(%d)", int(k))
	}
}

// Channel describes an internal channel of a network: a shared state
// variable with a unique writer process and a unique reader process.
type Channel struct {
	Name   string
	Kind   ChannelKind
	Writer string
	Reader string
	// Initial is the optional initial value of a blackboard. When
	// HasInitial is false a blackboard starts uninitialized and reads
	// return ok == false until the first write.
	Initial    Value
	HasInitial bool

	// DrainReads declares that every job of the reader consumes all
	// queued tokens (a read loop until ok == false) instead of the
	// default at most one. The declaration is an access profile consumed
	// by the static dataflow analysis (internal/staticflow); execution
	// semantics are unaffected.
	DrainReads bool
	// WriteGatedBy names an input channel of the writer process such
	// that a job of the writer emits a token on this channel only when
	// its read of that input succeeded in the same job. Empty means the
	// writer writes unconditionally (the default access profile).
	WriteGatedBy string
}

// Drain marks the channel's reader as draining (see DrainReads) and
// returns the channel for builder chaining.
func (c *Channel) Drain() *Channel {
	c.DrainReads = true
	return c
}

// GatedBy declares that writes to this channel happen only when the
// writer's read of the named input channel succeeded (see WriteGatedBy)
// and returns the channel for builder chaining.
func (c *Channel) GatedBy(channel string) *Channel {
	c.WriteGatedBy = channel
	return c
}

// channelState is the mutable runtime state of an internal channel.
type channelState interface {
	write(v Value)
	read() (Value, bool)
	reset()
	// snapshot returns the observable content for state comparison:
	// queued values for a FIFO, the last value (or empty) for a
	// blackboard.
	snapshot() []Value
	// len returns the number of immediately readable values.
	len() int
}

// fifoState implements channelState with queue semantics over a ring
// buffer. When the backing storage is pre-sized to the channel's static
// high-water bound (see MachineOptions.FIFOCapacity), steady-state
// execution never allocates; an underestimated capacity only costs a
// doubling copy, never correctness.
type fifoState struct {
	buf  []Value
	head int
	n    int
}

func (f *fifoState) write(v Value) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)%len(f.buf)] = v
	f.n++
}

func (f *fifoState) grow() {
	ncap := 2 * len(f.buf)
	if ncap == 0 {
		ncap = 4
	}
	nb := make([]Value, ncap)
	for i := 0; i < f.n; i++ {
		nb[i] = f.buf[(f.head+i)%len(f.buf)]
	}
	f.buf, f.head = nb, 0
}

func (f *fifoState) read() (Value, bool) {
	if f.n == 0 {
		return nil, false
	}
	v := f.buf[f.head]
	f.buf[f.head] = nil // release the slot's reference
	f.head = (f.head + 1) % len(f.buf)
	f.n--
	return v, true
}

func (f *fifoState) reset() {
	for i := 0; i < f.n; i++ {
		f.buf[(f.head+i)%len(f.buf)] = nil
	}
	f.head, f.n = 0, 0
}

func (f *fifoState) snapshot() []Value {
	out := make([]Value, f.n)
	for i := 0; i < f.n; i++ {
		out[i] = f.buf[(f.head+i)%len(f.buf)]
	}
	return out
}

func (f *fifoState) len() int { return f.n }

// blackboardState implements channelState with last-value semantics.
type blackboardState struct {
	v           Value
	initialized bool
	initial     Value
	hasInitial  bool
}

func (b *blackboardState) write(v Value) {
	b.v = v
	b.initialized = true
}

func (b *blackboardState) read() (Value, bool) {
	if !b.initialized {
		return nil, false
	}
	return b.v, true
}

func (b *blackboardState) reset() {
	b.v = nil
	b.initialized = false
	if b.hasInitial {
		b.v = b.initial
		b.initialized = true
	}
}

func (b *blackboardState) snapshot() []Value {
	if !b.initialized {
		return nil
	}
	return []Value{b.v}
}

func (b *blackboardState) len() int {
	if b.initialized {
		return 1
	}
	return 0
}

// newChannelState allocates the runtime state for a channel description.
func newChannelState(c *Channel) channelState {
	switch c.Kind {
	case FIFO:
		return &fifoState{}
	case Blackboard:
		s := &blackboardState{initial: c.Initial, hasInitial: c.HasInitial}
		s.reset()
		return s
	default:
		panic(fmt.Sprintf("core: unknown channel kind %d", int(c.Kind)))
	}
}

package core

import "unsafe"

// Boxing a float64 or an int into a Value normally heap-allocates an
// 8-byte cell per conversion (runtime.convT64), and channel samples are
// retained until the run ends — so a behavior writing numeric samples
// allocates on every job, no matter how carefully the engine itself pools.
// cellArena removes that last per-frame allocation source: it owns chunks
// of cells, hands one out per boxed value, and Machine.Reset recycles all
// of them for the next run. Cells are written exactly once, before the
// Value escapes, so within a run every boxed Value is immutable, exactly
// like an ordinary boxed number. Across runs the cells are reused, which
// is the same lifetime contract as every other pooled run artifact: a
// Report obtained from a pooled RunState is valid until the next run on
// that state.
//
// The construction copies a prototype interface value and repoints its
// data word at the arena cell. Both words of the resulting eface reference
// live objects at all times (the runtime type descriptor and a cell kept
// reachable by the arena), so the value is indistinguishable from a
// runtime-boxed value of the cell type — ==, type asserts, reflect.DeepEqual
// and JSON all behave identically. T must be a non-pointer-shaped type
// (one stored indirectly in an interface), such as float64 or int.
type cellArena[T any] struct {
	proto  Value // a boxed T, whose type word box reuses
	chunks [][]T
	ci     int // chunk currently being filled
	off    int // next free cell in chunks[ci]
}

// cellChunkSize balances steady-state footprint against append frequency;
// one chunk covers a typical frame's numeric traffic.
const cellChunkSize = 512

// eface mirrors the runtime layout of an empty interface. Value is an
// empty interface type, so the same layout applies.
type eface struct {
	typ  unsafe.Pointer
	data unsafe.Pointer
}

func (a *cellArena[T]) box(x T) Value {
	if a.ci == len(a.chunks) {
		if a.proto == nil {
			a.proto = Value(*new(T))
		}
		a.chunks = append(a.chunks, make([]T, cellChunkSize))
	}
	cell := &a.chunks[a.ci][a.off]
	if a.off++; a.off == cellChunkSize {
		a.ci++
		a.off = 0
	}
	*cell = x
	v := a.proto
	(*eface)(unsafe.Pointer(&v)).data = unsafe.Pointer(cell)
	return v
}

// reset makes every cell reusable; the chunks themselves are retained.
func (a *cellArena[T]) reset() { a.ci, a.off = 0, 0 }

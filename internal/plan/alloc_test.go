package plan

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/nettest"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// TestWarmReplayAllocsIndependentOfJobCount pins the steady-state memory
// model at scale: replaying a warm RunState allocates the same (small,
// constant) number of objects per frame whatever the frame's job count, so
// nothing on the replay path allocates per job. It covers 1, 2 and 4
// frames, the request mix of the simulate-warm-scale workload, checks
// that one run warms a state fully (the second allocates nothing), and
// covers the report's on-demand channel snapshot, which allocates nothing
// once the state is warm.
func TestWarmReplayAllocsIndependentOfJobCount(t *testing.T) {
	plans := map[int]*Plan{}
	planFor := func(jobs int) *Plan {
		if p, ok := plans[jobs]; ok {
			return p
		}
		net := nettest.Scale(rand.New(rand.NewSource(int64(jobs))),
			nettest.ScaleOptions{TargetJobs: jobs, Processors: 4})
		tg, err := taskgraph.Derive(net)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.ListSchedule(tg, 4, sched.ALAPEDF)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		plans[jobs] = p
		return p
	}
	allocsPerFrame := func(jobs, frames int) (float64, int) {
		p := planFor(jobs)
		cfg := Config{Frames: frames, Inputs: nettest.Inputs(p.tg.Net, 2*frames)}
		rs := p.NewRunState()
		run := func() *Report {
			rep, err := rs.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		if allocs := testing.AllocsPerRun(1, func() { run() }); allocs != 0 {
			t.Errorf("%d jobs, %d frames: the second run on a state allocates %v objects", jobs, frames, allocs)
		}
		rep := run()
		first := cloneChannels(rep.Channels())
		if again := rep.Channels(); !reflect.DeepEqual(first, again) {
			t.Errorf("%d jobs, %d frames: two Channels calls on one report differ", jobs, frames)
		}
		fresh, err := p.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, fresh.Channels()) {
			t.Errorf("%d jobs, %d frames: pooled Channels differs from a fresh run's", jobs, frames)
		}
		if allocs := testing.AllocsPerRun(5, func() { rep.Channels() }); allocs != 0 {
			t.Errorf("%d jobs, %d frames: Channels on a warm state allocates %v objects", jobs, frames, allocs)
		}
		allocs := testing.AllocsPerRun(5, func() { run() })
		return allocs / float64(frames), len(p.tg.Jobs)
	}
	for _, frames := range []int{1, 2, 4} {
		small, nSmall := allocsPerFrame(200, frames)
		large, nLarge := allocsPerFrame(1600, frames)
		if nLarge < 4*nSmall {
			t.Fatalf("job counts %d and %d too close to tell per-job allocations apart", nSmall, nLarge)
		}
		if small != large {
			t.Errorf("%d frames: warm replay allocates %v objects per frame at %d jobs but %v at %d jobs",
				frames, small, nSmall, large, nLarge)
		}
	}
}

// cloneChannels deep-copies a channel snapshot out of pooled storage.
func cloneChannels(m map[string][]core.Value) map[string][]core.Value {
	out := maps.Clone(m)
	for ch, vals := range out {
		out[ch] = slices.Clone(vals)
	}
	return out
}

// TestEntryLayout pins the report arena's layout, which replay speed and
// the garbage collector's scan cost depend on: Entry holds no pointers and
// packs into at most 24 bytes.
func TestEntryLayout(t *testing.T) {
	if size := unsafe.Sizeof(Entry{}); size > 24 {
		t.Errorf("Entry is %d bytes, want at most 24", size)
	}
	var pointerFree func(reflect.Type) bool
	pointerFree = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Array:
			return pointerFree(typ.Elem())
		case reflect.Struct:
			for i := range typ.NumField() {
				if !pointerFree(typ.Field(i).Type) {
					return false
				}
			}
			return true
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return true
		default: // pointers, strings, slices, maps, channels, funcs, interfaces
			return false
		}
	}
	if !pointerFree(reflect.TypeOf(Entry{})) {
		t.Error("Entry holds a pointer; the report arena would need a GC scan")
	}
}

package staticflow

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/nettest"
	"repro/internal/rational"
)

// orderCase is one network with an event schedule for the order tests.
type orderCase struct {
	name   string
	net    *core.Network
	frames int
	events map[string][]core.Time
}

// orderCases covers the paper applications and random networks, each with
// and without random sporadic events, at 2–4 frames, plus a network whose
// periods and events lie off every common millisecond grid.
func orderCases(t *testing.T) []orderCase {
	t.Helper()
	var cases []orderCase
	add := func(name string, net *core.Network, rng *rand.Rand) {
		frames := 2 + rng.Intn(3)
		h, err := core.Hyperperiod(net, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases,
			orderCase{name + "/no-events", net, frames, nil},
			orderCase{name + "/events", net, frames, nettest.RandomEvents(rng, net, h.MulInt(int64(frames)))})
	}
	rng := rand.New(rand.NewSource(1))
	for _, name := range apps.Names() {
		net, err := apps.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		add(name, net, rng)
	}
	for seed := int64(0); seed < 40; seed++ {
		add(fmt.Sprintf("random-%d", seed), nettest.Random(rand.New(rand.NewSource(seed)), nettest.Options{}), rng)
	}
	third := core.NewNetwork("thirds")
	third.AddPeriodic("a", rational.New(1, 3), rational.New(1, 3), ms(1), stub)
	third.AddPeriodic("b", rational.New(2, 7), rational.New(2, 7), ms(1), stub)
	third.AddPeriodic("c", rational.New(1, 1), rational.New(1, 1), ms(1), stub)
	third.AddSporadic("s", 2, rational.New(1, 2), rational.New(1, 2), ms(1), stub)
	third.Connect("a", "b", "ab", core.FIFO).Drain()
	third.Connect("s", "c", "sc", core.FIFO).Drain()
	third.Priority("a", "b")
	third.Priority("s", "c")
	cases = append(cases, orderCase{"thirds/events", third, 3, map[string][]core.Time{
		"s": {rational.New(0, 1), rational.New(2, 7), rational.New(2, 3), rational.New(4, 3), rational.New(12, 7), rational.New(13, 5)},
	}})
	return cases
}

// TestJobOrderMatchesJobSequence checks the order Buffers sweeps against
// the definition of <_J that the rational job sequence implements: times
// never decrease, simultaneous jobs of different processes run in strictly
// increasing FP rank, each job's frame is that of its time, and every
// process gets exactly its generated jobs — periodic bursts at 0, T, 2T,
// ... and sporadic jobs at the supplied events. Together these fix the
// order up to swapping identical burst jobs. The oracle comparison lives
// in internal/integration (FuzzJobOrderMatchesReference).
func TestJobOrderMatchesJobSequence(t *testing.T) {
	for _, tc := range orderCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			h, err := core.Hyperperiod(tc.net, nil)
			if err != nil {
				t.Fatal(err)
			}
			rank, err := tc.net.FPRank(-1)
			if err != nil {
				t.Fatal(err)
			}
			horizon := h.MulInt(int64(tc.frames))
			order, err := core.JobOrder(tc.net, rank, horizon, tc.events)
			if err != nil {
				t.Fatal(err)
			}
			jobs := order.Jobs
			procs := tc.net.Processes()
			got := make([][]core.Time, len(procs))
			var prev core.Time
			for i, j := range jobs {
				if j.Offset < 0 || j.Offset >= order.H {
					t.Fatalf("job %d: offset %d outside its frame of %d ticks", i, j.Offset, order.H)
				}
				at := order.Scale.FromTicks(int64(j.Frame)*order.H + j.Offset)
				if !h.MulInt(int64(j.Frame)).LessEq(at) || !at.Less(h.MulInt(int64(j.Frame+1))) {
					t.Fatalf("job %d: time %v outside frame %d", i, at, j.Frame)
				}
				if i > 0 {
					c := at.Cmp(prev)
					last := jobs[i-1].Pid
					if c < 0 || c == 0 && j.Pid != last && rank[j.Pid] <= rank[last] {
						t.Fatalf("job %d (%s@%v) out of order after %s@%v",
							i, procs[j.Pid].Name, at, procs[last].Name, prev)
					}
				}
				prev = at
				got[j.Pid] = append(got[j.Pid], at)
			}
			for pid, p := range procs {
				want := tc.events[p.Name]
				if p.Gen.Kind == core.Periodic {
					want = nil
					for t := rational.Zero; t.Less(horizon); t = t.Add(p.Gen.Period) {
						for b := 0; b < p.Gen.Burst; b++ {
							want = append(want, t)
						}
					}
				}
				want = slices.Clone(want)
				slices.SortFunc(want, core.Time.Cmp)
				if !slices.EqualFunc(got[pid], want, core.Time.Equal) {
					t.Fatalf("%s: jobs at %v, want %v", p.Name, got[pid], want)
				}
			}
		})
	}
}

// TestBuffersMatchRationalSweep compares whole profiles, field for field,
// against the rational, name-keyed sweep of buffersReference.
func TestBuffersMatchRationalSweep(t *testing.T) {
	for _, tc := range orderCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Buffers(tc.net, tc.frames, tc.events)
			if err != nil {
				t.Fatal(err)
			}
			want, err := buffersReference(tc.net, tc.frames, tc.events)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("profiles diverge:\ngot:  %+v\nwant: %+v", got.Channels(), want.Channels())
			}
		})
	}
}

// TestBuffersEventErrorsMatchInvocations checks that bad event schedules
// fail with the texts of the zero-delay job order.
func TestBuffersEventErrorsMatchInvocations(t *testing.T) {
	net := rateMismatch(true)
	net.AddSporadic("s", 1, ms(100), ms(100), ms(1), stub)
	rank, err := net.FPRank(-1)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := core.Hyperperiod(net, nil)
	for _, events := range []map[string][]core.Time{
		{"s": {ms(0), ms(50)}},
		{"s": {ms(800)}},
		{"s": {ms(-1)}},
		{"w": {ms(0)}},
		{"nope": {ms(0)}},
	} {
		_, want := core.JobOrder(net, rank, h.MulInt(2), events)
		_, got := Buffers(net, 2, events)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("events %v: got error %v, want %v", events, got, want)
		}
	}
}

// buffersReference is the rational static sweep: the zero-delay jobs with
// their exact times, frames found by comparing each job's time with the
// next frame boundary, and channel state keyed by name.
func buffersReference(net *core.Network, frames int, events map[string][]core.Time) (*BufferProfile, error) {
	h, err := core.Hyperperiod(net, nil)
	if err != nil {
		return nil, err
	}
	horizon := h.MulInt(int64(frames))
	rank, err := net.FPRank(-1)
	if err != nil {
		return nil, err
	}
	order, err := core.JobOrder(net, rank, horizon, events)
	if err != nil {
		return nil, err
	}
	jobs := order.Refs()
	profile := &BufferProfile{Hyperperiod: h, Frames: frames, channels: make(map[string]*ChannelBounds)}
	for _, c := range net.Channels() {
		profile.channels[c.Name] = &ChannelBounds{
			Name: c.Name, Kind: c.Kind, Writer: c.Writer, Reader: c.Reader,
			Produced: make([]int, frames), Consumed: make([]int, frames),
		}
		profile.order = append(profile.order, c.Name)
	}
	sort.Strings(profile.order)
	occ := make(map[string]int)
	initialized := make(map[string]bool)
	for _, c := range net.Channels() {
		initialized[c.Name] = c.Kind == core.Blackboard && c.HasInitial
	}
	frame := 0
	nextBoundary := h
	recordBoundary := func() {
		for _, name := range profile.order {
			cb := profile.channels[name]
			backlog := occ[name]
			if cb.Kind == core.Blackboard {
				backlog = 0
				if initialized[name] {
					backlog = 1
				}
			}
			cb.EndOfFrameBacklog = append(cb.EndOfFrameBacklog, backlog)
		}
	}
	for _, j := range jobs {
		for nextBoundary.LessEq(j.Time) {
			recordBoundary()
			nextBoundary = nextBoundary.Add(h)
			frame++
		}
		p := net.Process(j.Proc)
		if p.Behavior == nil || p.Behavior == core.NopBehavior {
			continue
		}
		readOK := make(map[string]bool)
		for _, name := range p.Inputs() {
			c := net.Channel(name)
			if c.Kind == core.Blackboard {
				readOK[name] = initialized[name]
				continue
			}
			o := occ[name]
			readOK[name] = o > 0
			cb := profile.channels[name]
			if c.DrainReads {
				occ[name] = 0
				cb.Consumed[frame] += o
			} else if o > 0 {
				occ[name]--
				cb.Consumed[frame]++
			}
		}
		for _, name := range p.Outputs() {
			c := net.Channel(name)
			if ok, gated := readOK[c.WriteGatedBy]; gated && !ok {
				continue
			}
			cb := profile.channels[name]
			cb.Produced[frame]++
			if c.Kind == core.Blackboard {
				initialized[name] = true
				continue
			}
			occ[name]++
			cb.HighWater = max(cb.HighWater, occ[name])
		}
	}
	for !horizon.Less(nextBoundary) {
		recordBoundary()
		nextBoundary = nextBoundary.Add(h)
	}
	for _, name := range profile.order {
		cb := profile.channels[name]
		if cb.Kind == core.Blackboard {
			if initialized[name] {
				cb.HighWater = 1
			}
			continue
		}
		b := cb.EndOfFrameBacklog
		growing := len(b) >= 2 && b[len(b)-1] > b[0]
		for i := 1; i < len(b); i++ {
			growing = growing && b[i] > b[i-1]
		}
		cb.Unbalanced = growing
	}
	return profile, nil
}

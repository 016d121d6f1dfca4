// Package staticflow computes dataflow facts of an FPPN model in closed
// form, without executing any process behaviour. It is the module's one
// buffer analysis: fppn.BufferBounds, cmd/fppnc -buffers and the lint
// rules FPPN014, FPPN016 and FPPN017 all read it. (FPPN015's
// processor-demand bound reads the derived task graph instead:
// taskgraph.JobTicks.Demand.)
//
//   - Buffers sweeps the zero-delay job order symbolically — counting
//     tokens instead of moving values — and returns, per channel, exact
//     token production/consumption counts, the FIFO high-water bound,
//     per-frame backlogs and an unbalance verdict. This is the
//     SDF balance-equation idea (Lee & Messerschmitt 1987) transplanted
//     to FPPN: rates, bursts and the FP order alone determine the
//     occupancy profile, because the access profile of every channel
//     (how many tokens a job moves) is declared on the model, not
//     hidden in code. The differential suite in internal/integration
//     checks the numbers against an executed sweep that runs the
//     behaviours and reads each channel's length after every job.
//   - SuggestFP (suggest.go) completes the functional-priority coverage
//     of every channel-sharing pair with a minimal, acyclicity-
//     preserving edge set — the machine-applicable fix for FPPN003.
//
// Token counting relies on each channel's declared access profile: by
// default a writer job produces one token and a reader job consumes at
// most one; core.Channel.DrainReads declares a read-until-empty loop
// and core.Channel.WriteGatedBy a write conditional on a same-job read;
// a process whose behaviour is core.NopBehavior (or nil) touches no
// channel. The numbers are exact for a model whose behaviours follow
// their declared profile. Blackboards hold at most one value and are
// bound to 1 once written or initialized.
package staticflow

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/rational"
)

// Time aliases the exact rational time type.
type Time = core.Time

// ChannelBounds is the static occupancy profile of one internal channel.
type ChannelBounds struct {
	// Name, Kind, Writer and Reader identify the channel.
	Name   string
	Kind   core.ChannelKind
	Writer string
	Reader string
	// Produced and Consumed count the tokens written and consumed per
	// hyperperiod frame (index 0 is the first frame). For blackboards
	// Produced counts writes and Consumed is always zero (reads do not
	// remove the value).
	Produced []int
	Consumed []int
	// HighWater is the maximum simultaneous occupancy over the whole
	// sweep: the buffer capacity an implementation must provision.
	// Blackboards are bound to 1.
	HighWater int
	// EndOfFrameBacklog is the occupancy at each hyperperiod boundary
	// (h, 2h, ..., frames·h).
	EndOfFrameBacklog []int
	// Unbalanced reports a backlog growing strictly from frame to
	// frame: the producer outpaces the consumer and no finite buffer
	// suffices in the long run.
	Unbalanced bool
}

// BufferProfile is the result of one static buffer sweep.
type BufferProfile struct {
	// Hyperperiod is the frame length h of the raw process periods.
	Hyperperiod Time
	// Frames is the number of hyperperiod frames swept.
	Frames int

	channels map[string]*ChannelBounds
	order    []string // channel names, sorted
}

// Channel returns the bounds of one channel, or nil.
func (p *BufferProfile) Channel(name string) *ChannelBounds { return p.channels[name] }

// Channels returns the per-channel bounds sorted by channel name.
func (p *BufferProfile) Channels() []*ChannelBounds {
	out := make([]*ChannelBounds, 0, len(p.order))
	for _, name := range p.order {
		out = append(out, p.channels[name])
	}
	return out
}

// Bound returns the static high-water bound for one channel. ok is
// false when the channel does not exist in the profiled network.
func (p *BufferProfile) Bound(channel string) (bound int, ok bool) {
	c, ok := p.channels[channel]
	if !ok {
		return 0, false
	}
	return c.HighWater, true
}

// HighWater returns the per-channel high-water bounds.
func (p *BufferProfile) HighWater() map[string]int {
	out := make(map[string]int, len(p.channels))
	for name, c := range p.channels {
		out[name] = c.HighWater
	}
	return out
}

// EndOfFrameBacklog returns the per-channel boundary backlogs.
func (p *BufferProfile) EndOfFrameBacklog() map[string][]int {
	out := make(map[string][]int, len(p.channels))
	for name, c := range p.channels {
		out[name] = c.EndOfFrameBacklog
	}
	return out
}

// Unbalanced returns the names of unbalanced channels, sorted.
func (p *BufferProfile) Unbalanced() []string {
	var out []string
	for _, name := range p.order {
		if p.channels[name].Unbalanced {
			out = append(out, name)
		}
	}
	return out
}

// chanEffect is one write of a job: the channel index and the index of
// the gating read in the process's read list, or -1 (unconditional).
type chanEffect struct {
	ch, gateIdx int
}

// procEffects is the per-process token footprint of one job.
type procEffects struct {
	reads  []int
	writes []chanEffect
}

// Buffers performs the static buffer sweep over the given number of
// hyperperiod frames (at least 2, to judge balance) with the given
// sporadic event times. It requires a well-formed network: builder
// errors, FP cycles or uncovered channels make the zero-delay order
// undefined and are returned as an error.
func Buffers(net *core.Network, frames int, events map[string][]Time) (*BufferProfile, error) {
	if frames < 2 {
		return nil, fmt.Errorf("staticflow: need at least 2 frames to judge balance, got %d", frames)
	}
	if ps := net.Problems(); len(ps) > 0 {
		return nil, fmt.Errorf("staticflow: network %q is not well-formed: %v", net.Name, ps[0].Message)
	}
	h, err := core.Hyperperiod(net, nil)
	if err != nil {
		return nil, err
	}
	rank, err := net.FPRank(-1)
	if err != nil {
		return nil, err
	}
	num, ok := rational.MulOK(h.Num(), int64(frames))
	if !ok {
		return nil, fmt.Errorf("staticflow: %d frames of the hyperperiod %vs overflow int64", frames, h)
	}
	order, err := core.JobOrder(net, rank, rational.New(num, h.Den()), events)
	if err != nil {
		return nil, err
	}

	profile := &BufferProfile{
		Hyperperiod: h,
		Frames:      frames,
		channels:    make(map[string]*ChannelBounds),
	}
	// Interpreter state by channel index: occupancy, blackboard init.
	chans := net.Channels()
	cid := make(map[string]int, len(chans))
	cbs := make([]*ChannelBounds, len(chans))
	occ := make([]int, len(chans))
	initialized := make([]bool, len(chans))
	for i, c := range chans {
		cb := &ChannelBounds{
			Name: c.Name, Kind: c.Kind, Writer: c.Writer, Reader: c.Reader,
			Produced: make([]int, frames), Consumed: make([]int, frames),
		}
		profile.channels[c.Name] = cb
		profile.order = append(profile.order, c.Name)
		cid[c.Name] = i
		cbs[i] = cb
		initialized[i] = c.Kind == core.Blackboard && c.HasInitial
	}
	sort.Strings(profile.order)

	// Per-process token effects, resolved once.
	procs := net.Processes()
	effects := make([]procEffects, len(procs))
	for pid, p := range procs {
		if p.Behavior == nil || p.Behavior == core.NopBehavior {
			continue // declared no-op: touches no channels
		}
		e := &effects[pid]
		for _, name := range p.Inputs() {
			e.reads = append(e.reads, cid[name])
		}
		for _, name := range p.Outputs() {
			w := chanEffect{ch: cid[name], gateIdx: -1}
			if g, ok := cid[chans[w.ch].WriteGatedBy]; ok {
				w.gateIdx = slices.Index(e.reads, g)
			}
			e.writes = append(e.writes, w)
		}
	}

	frame := 0
	readOK := make([]bool, len(chans)) // a job reads each channel at most once
	recordBoundary := func() {
		for i, cb := range cbs {
			backlog := occ[i]
			if cb.Kind == core.Blackboard {
				backlog = 0
				if initialized[i] {
					backlog = 1
				}
			}
			cb.EndOfFrameBacklog = append(cb.EndOfFrameBacklog, backlog)
		}
	}

	for _, j := range order.Jobs {
		for ; frame < j.Frame; frame++ {
			recordBoundary()
		}
		e := &effects[j.Pid]
		for i, c := range e.reads {
			cb := cbs[c]
			if cb.Kind == core.Blackboard {
				readOK[i] = initialized[c]
				continue
			}
			o := occ[c]
			readOK[i] = o > 0
			if chans[c].DrainReads {
				occ[c] = 0
				cb.Consumed[frame] += o
			} else if o > 0 {
				occ[c] = o - 1
				cb.Consumed[frame]++
			}
		}
		for _, w := range e.writes {
			if w.gateIdx >= 0 && !readOK[w.gateIdx] {
				continue
			}
			c := w.ch
			cb := cbs[c]
			cb.Produced[frame]++
			if cb.Kind == core.Blackboard {
				initialized[c] = true
				continue
			}
			occ[c]++
			cb.HighWater = max(cb.HighWater, occ[c])
		}
	}
	for ; frame < frames; frame++ {
		recordBoundary()
	}

	for i, cb := range cbs {
		if cb.Kind == core.Blackboard {
			if initialized[i] {
				cb.HighWater = 1
			}
			continue
		}
		b := cb.EndOfFrameBacklog
		cb.Unbalanced = len(b) >= 2 && b[len(b)-1] > b[0]
		for i := 1; i < len(b); i++ {
			cb.Unbalanced = cb.Unbalanced && b[i] > b[i-1]
		}
	}
	return profile, nil
}

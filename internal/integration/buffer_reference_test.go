package integration

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// bufferReference is the executed buffer sweep's result: per channel, the
// largest occupancy, the occupancy at each hyperperiod boundary and the
// channels whose boundary backlog grows strictly.
type bufferReference struct {
	HighWater         map[string]int
	EndOfFrameBacklog map[string][]int
	Unbalanced        []string
}

// executedBufferBounds is the oracle of the static buffer sweep
// (staticflow.Buffers). It executes the behaviours under the zero-delay
// semantics over the given number of hyperperiods and reads every
// channel's length before the first job and after each job.
//
// A length read after a job is the job's peak occupancy only when the job
// either only writes or only reads the channel. That holds unless the
// channel's writer is also its reader, so a network with such a channel is
// refused: a corpus change that adds one breaks the differential tests
// instead of silently weakening them.
func executedBufferBounds(net *core.Network, frames int,
	events map[string][]core.Time, inputs map[string][]core.Value) (*bufferReference, error) {

	if frames < 2 {
		return nil, fmt.Errorf("need at least 2 frames to judge balance, got %d", frames)
	}
	for _, c := range net.Channels() {
		if c.Writer == c.Reader {
			return nil, fmt.Errorf("channel %q loops back to its own process %q; the executed sweep cannot see a job's peak on it",
				c.Name, c.Writer)
		}
	}
	h, err := core.Hyperperiod(net, nil)
	if err != nil {
		return nil, err
	}
	horizon := h.MulInt(int64(frames))
	jobs, err := zeroDelayJobsReference(net, horizon, events, -1)
	if err != nil {
		return nil, err
	}
	m, err := core.NewMachine(net, core.MachineOptions{Inputs: inputs})
	if err != nil {
		return nil, err
	}

	rep := &bufferReference{
		HighWater:         map[string]int{},
		EndOfFrameBacklog: map[string][]int{},
	}
	names := make([]string, 0, len(net.Channels()))
	for _, c := range net.Channels() {
		names = append(names, c.Name)
	}
	sort.Strings(names)
	observe := func() {
		for _, ch := range names {
			rep.HighWater[ch] = max(rep.HighWater[ch], m.ChannelLen(ch))
		}
	}
	recordBoundary := func() {
		for _, ch := range names {
			rep.EndOfFrameBacklog[ch] = append(rep.EndOfFrameBacklog[ch], m.ChannelLen(ch))
		}
	}

	observe()
	nextBoundary := h
	for _, j := range jobs {
		for nextBoundary.LessEq(j.Time) {
			recordBoundary()
			nextBoundary = nextBoundary.Add(h)
		}
		if err := m.ExecJob(j.Proc, j.Time); err != nil {
			return nil, err
		}
		observe()
	}
	for !horizon.Less(nextBoundary) {
		recordBoundary()
		nextBoundary = nextBoundary.Add(h)
	}

	for _, ch := range names {
		backlog := rep.EndOfFrameBacklog[ch]
		growing := len(backlog) >= 2
		for i := 1; i < len(backlog) && growing; i++ {
			growing = backlog[i] > backlog[i-1]
		}
		if growing {
			rep.Unbalanced = append(rep.Unbalanced, ch)
		}
	}
	return rep, nil
}

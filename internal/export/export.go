// Package export serializes FPPN artifacts — networks, task graphs, static
// schedules and runtime reports — to JSON for tool interchange, and renders
// process networks in Graphviz DOT (task graphs and timed-automata networks
// already render themselves; this package completes the set).
//
// Time values serialize as exact rational strings ("1/5"), so round trips
// never lose precision.
package export

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// NetworkJSON is the serialized form of a process network's structure
// (behaviours are code and do not serialize).
type NetworkJSON struct {
	Name      string        `json:"name"`
	Processes []ProcessJSON `json:"processes"`
	Channels  []ChannelJSON `json:"channels"`
	// Priorities lists the functional-priority edges [hi, lo].
	Priorities [][2]string       `json:"priorities"`
	Inputs     map[string]string `json:"externalInputs,omitempty"`
	Outputs    map[string]string `json:"externalOutputs,omitempty"`
}

// ProcessJSON describes one process.
type ProcessJSON struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	Period   string `json:"period"`
	Burst    int    `json:"burst"`
	Deadline string `json:"deadline"`
	WCET     string `json:"wcet"`
}

// ChannelJSON describes one internal channel.
type ChannelJSON struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Writer string `json:"writer"`
	Reader string `json:"reader"`
}

// Network converts a network to its serializable structure.
func Network(n *core.Network) NetworkJSON {
	out := NetworkJSON{
		Name:    n.Name,
		Inputs:  map[string]string{},
		Outputs: map[string]string{},
	}
	for _, p := range n.Processes() {
		out.Processes = append(out.Processes, ProcessJSON{
			Name:     p.Name,
			Kind:     p.Gen.Kind.String(),
			Period:   p.Period().String(),
			Burst:    p.Burst(),
			Deadline: p.Deadline().String(),
			WCET:     p.WCET.String(),
		})
		for _, ch := range p.ExternalInputs() {
			out.Inputs[ch] = p.Name
		}
		for _, ch := range p.ExternalOutputs() {
			out.Outputs[ch] = p.Name
		}
	}
	for _, c := range n.Channels() {
		out.Channels = append(out.Channels, ChannelJSON{
			Name: c.Name, Kind: c.Kind.String(), Writer: c.Writer, Reader: c.Reader,
		})
	}
	out.Priorities = n.PriorityEdges()
	return out
}

// NetworkDOT renders the process network like the paper's Figs. 1 and 7:
// boxes for periodic processes, double octagons for sporadic ones, solid
// arrows for FIFOs, dashed for blackboards, dotted grey for functional
// priorities not already implied by a channel.
func NetworkDOT(n *core.Network) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n  node [fontsize=10];\n", n.Name)
	for _, p := range n.Processes() {
		shape := "box"
		if p.IsSporadic() {
			shape = "doubleoctagon"
		}
		fmt.Fprintf(&b, "  %q [label=%q shape=%s];\n", p.Name,
			fmt.Sprintf("%s\\n%v", p.Name, p.Gen), shape)
	}
	covered := map[[2]string]bool{}
	for _, c := range n.Channels() {
		style := "solid"
		if c.Kind == core.Blackboard {
			style = "dashed"
		}
		fmt.Fprintf(&b, "  %q -> %q [label=%q style=%s];\n", c.Writer, c.Reader, c.Name, style)
		covered[[2]string{c.Writer, c.Reader}] = true
		covered[[2]string{c.Reader, c.Writer}] = true
	}
	for _, e := range n.PriorityEdges() {
		if covered[e] {
			continue
		}
		fmt.Fprintf(&b, "  %q -> %q [style=dotted color=gray];\n", e[0], e[1])
	}
	for _, p := range n.Processes() {
		for _, ch := range p.ExternalInputs() {
			fmt.Fprintf(&b, "  %q [shape=plaintext];\n  %q -> %q;\n", ch, ch, p.Name)
		}
		for _, ch := range p.ExternalOutputs() {
			fmt.Fprintf(&b, "  %q [shape=plaintext];\n  %q -> %q;\n", ch, p.Name, ch)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// TaskGraphJSON serializes a derived task graph.
type TaskGraphJSON struct {
	Network     string    `json:"network"`
	Hyperperiod string    `json:"hyperperiod"`
	Jobs        []JobJSON `json:"jobs"`
	Edges       [][2]int  `json:"edges"`
}

// JobJSON is one task-graph node.
type JobJSON struct {
	Index    int    `json:"index"`
	Process  string `json:"process"`
	K        int64  `json:"k"`
	Arrival  string `json:"arrival"`
	Deadline string `json:"deadline"`
	WCET     string `json:"wcet"`
	Server   bool   `json:"server,omitempty"`
}

// TaskGraph converts a task graph to its serializable structure.
func TaskGraph(tg *taskgraph.TaskGraph) TaskGraphJSON {
	out := TaskGraphJSON{
		Network:     tg.Net.Name,
		Hyperperiod: tg.Hyperperiod.String(),
		Edges:       tg.Edges(),
	}
	for _, j := range tg.Jobs {
		out.Jobs = append(out.Jobs, JobJSON{
			Index: j.Index, Process: j.Proc, K: j.K,
			Arrival: j.Arrival.String(), Deadline: j.Deadline.String(),
			WCET: j.WCET.String(), Server: j.Server,
		})
	}
	return out
}

// ScheduleJSON serializes a static schedule.
type ScheduleJSON struct {
	Processors  int              `json:"processors"`
	Heuristic   string           `json:"heuristic"`
	Hyperperiod string           `json:"hyperperiod"`
	Assignments []AssignmentJSON `json:"assignments"`
}

// AssignmentJSON is one job placement.
type AssignmentJSON struct {
	Job       string `json:"job"`
	Processor int    `json:"processor"`
	Start     string `json:"start"`
	End       string `json:"end"`
}

// Schedule converts a static schedule to its serializable structure.
func Schedule(s *sched.Schedule) ScheduleJSON {
	out := ScheduleJSON{
		Processors:  s.M,
		Heuristic:   s.Heuristic.String(),
		Hyperperiod: s.TG.Hyperperiod.String(),
	}
	for i, j := range s.TG.Jobs {
		out.Assignments = append(out.Assignments, AssignmentJSON{
			Job:       j.Name(),
			Processor: s.Assign[i].Proc,
			Start:     s.StartTime(i).String(),
			End:       s.End(i).String(),
		})
	}
	return out
}

// ImportSchedule reconstructs a static schedule from its JSON form against
// an independently derived task graph: jobs are matched by their p[k]
// names, start times parse as exact rationals and lower onto the
// schedule's tick table (sched.FromStarts), and the result is validated
// structurally (but not for feasibility — callers decide which check to
// apply). This closes the tool-interchange loop: schedules computed by an
// external tool can drive this repository's runtimes.
func ImportSchedule(tg *taskgraph.TaskGraph, jsonText string) (*sched.Schedule, error) {
	var sj ScheduleJSON
	if err := json.Unmarshal([]byte(jsonText), &sj); err != nil {
		return nil, fmt.Errorf("export: parse schedule: %w", err)
	}
	if sj.Processors < 1 {
		return nil, fmt.Errorf("export: schedule has %d processors", sj.Processors)
	}
	byName := make(map[string]int, len(tg.Jobs))
	for i, j := range tg.Jobs {
		byName[j.Name()] = i
	}
	procs, starts := make([]int, len(tg.Jobs)), make([]rational.Rat, len(tg.Jobs))
	seen := make([]bool, len(tg.Jobs))
	for _, a := range sj.Assignments {
		idx, ok := byName[a.Job]
		if !ok {
			return nil, fmt.Errorf("export: schedule assigns unknown job %q", a.Job)
		}
		if seen[idx] {
			return nil, fmt.Errorf("export: duplicate assignment for %q", a.Job)
		}
		seen[idx] = true
		start, err := rational.Parse(a.Start)
		if err != nil {
			return nil, fmt.Errorf("export: job %q start: %w", a.Job, err)
		}
		if a.Processor < 0 || a.Processor >= sj.Processors {
			return nil, fmt.Errorf("export: job %q on processor %d of %d", a.Job, a.Processor, sj.Processors)
		}
		procs[idx], starts[idx] = a.Processor, start
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("export: schedule misses job %s", tg.Jobs[i].Name())
		}
	}
	var h sched.Heuristic
	for _, cand := range sched.Heuristics {
		if cand.String() == sj.Heuristic {
			h = cand
		}
	}
	return sched.FromStarts(tg, sj.Processors, h, procs, starts)
}

// ReportJSON serializes a runtime report (entries, misses, output sample
// counts).
type ReportJSON struct {
	Frames   int            `json:"frames"`
	Entries  []EntryJSON    `json:"entries"`
	Misses   []MissJSON     `json:"misses,omitempty"`
	Skipped  int            `json:"skippedServerJobs"`
	Outputs  map[string]int `json:"outputSampleCounts"`
	Makespan string         `json:"makespan"`
}

// EntryJSON is one executed interval.
type EntryJSON struct {
	Processor int    `json:"processor"`
	Label     string `json:"label"`
	Start     string `json:"start"`
	End       string `json:"end"`
}

// MissJSON is one deadline violation.
type MissJSON struct {
	Job      string `json:"job"`
	Frame    int    `json:"frame"`
	Finish   string `json:"finish"`
	Deadline string `json:"deadline"`
}

// Report converts a runtime report to its serializable structure.
func Report(r *plan.Report) ReportJSON {
	out := ReportJSON{
		Frames:   r.Frames,
		Skipped:  len(r.Skipped),
		Outputs:  map[string]int{},
		Makespan: r.Makespan.String(),
	}
	for _, e := range r.GanttEntries() {
		out.Entries = append(out.Entries, EntryJSON{
			Processor: e.Proc, Label: e.Label,
			Start: e.Start.String(), End: e.End.String(),
		})
	}
	for _, m := range r.Misses {
		out.Misses = append(out.Misses, MissJSON{
			Job: m.Job.Name(), Frame: m.Frame,
			Finish: m.Finish.String(), Deadline: m.Deadline.String(),
		})
	}
	chans := make([]string, 0, len(r.Outputs))
	for ch := range r.Outputs {
		chans = append(chans, ch)
	}
	sort.Strings(chans)
	for _, ch := range chans {
		out.Outputs[ch] = len(r.Outputs[ch])
	}
	return out
}

// MarshalIndent renders any of the export structures as indented JSON.
func MarshalIndent(v any) (string, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", fmt.Errorf("export: %w", err)
	}
	return string(data), nil
}

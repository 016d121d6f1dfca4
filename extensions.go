package fppn

// This file exposes the extension layers built on top of the paper's core
// flow: the buffering and pipelining analyses and the mixed-criticality
// runtime (all three are the paper's stated future-work items), plus
// response-time analysis for the uniprocessor baseline and JSON/DOT export.

import (
	"repro/internal/analysis"
	"repro/internal/export"
	"repro/internal/mc"
	"repro/internal/sched"
	"repro/internal/staticflow"
	"repro/internal/taskgraph"
	"repro/internal/unisched"
)

// DeriveOptions tunes task-graph derivation beyond the paper's defaults.
type DeriveOptions = taskgraph.Options

// DeriveTaskGraphOpts derives a task graph with explicit options — e.g. a
// positive DeadlineSlack for pipelined scheduling.
func DeriveTaskGraphOpts(net *Network, opts DeriveOptions) (*TaskGraph, error) {
	return taskgraph.DeriveOpts(net, opts)
}

// PipelineSchedule places every process on its own processor with ASAP
// start times: the textbook pipelined schedule. Check the result with
// Schedule.ValidatePipelined before running it with RunConfig.Pipelined.
func PipelineSchedule(tg *TaskGraph, m int) (*Schedule, error) {
	return sched.PipelineSchedule(tg, m)
}

// Buffer analysis (paper future work: "buffering").
type (
	// BufferReport is a network's static buffer profile: per-channel
	// high-water bounds, end-of-frame backlogs and unbalance verdicts.
	BufferReport = staticflow.BufferProfile
)

// BufferBounds sweeps the zero-delay job order over the given number of
// hyperperiods (at least 2) without running any behaviour, and reports
// per-channel capacity bounds and the channels whose backlog grows from
// frame to frame.
//
// The contract is each channel's declared access profile. A writer job
// produces one token and a reader job consumes at most one, unless the
// channel declares Drain (each reader job empties it) or GatedBy (the
// writer writes only when its read of the named input succeeded in the
// same job); a process whose behaviour is core.NopBehavior touches no
// channel. The bounds are exact for behaviours that follow their declared
// profile. Lint rule FPPN014 and the runtime's FIFO preallocation read the
// same analysis.
func BufferBounds(net *Network, frames int, events map[string][]Time) (*BufferReport, error) {
	return staticflow.Buffers(net, frames, events)
}

// Schedule statistics and heuristic ablations.
type (
	// SchedStats summarizes a static schedule.
	SchedStats = analysis.SchedStats
)

// ScheduleStats computes utilization, makespan and slack statistics.
func ScheduleStats(s *Schedule) SchedStats { return analysis.Stats(s) }

// CompareHeuristics runs every schedule-priority heuristic on m processors.
func CompareHeuristics(tg *TaskGraph, m int) ([]SchedStats, error) {
	return analysis.CompareHeuristics(tg, m)
}

// Mixed criticality (paper future work: "mixed-critical scheduling").
type (
	// MCLevel is a criticality level (MCLO or MCHI).
	MCLevel = mc.Level
	// MCSpec assigns levels and HI budgets.
	MCSpec = mc.Spec
	// MCSchedule is a dual-criticality static schedule.
	MCSchedule = mc.Schedule
	// MCConfig parameterizes a mixed-criticality run.
	MCConfig = mc.Config
	// MCReport is the outcome of a mixed-criticality run.
	MCReport = mc.Report
)

// Criticality levels.
const (
	// MCLO marks droppable low-criticality processes.
	MCLO = mc.LO
	// MCHI marks high-criticality processes with dual budgets.
	MCHI = mc.HI
)

// BuildMC derives LO- and HI-mode schedules for a dual-criticality
// specification.
func BuildMC(net *Network, spec MCSpec, m int) (*MCSchedule, error) {
	return mc.Build(net, spec, m)
}

// RunMC simulates the dual-mode static-order policy with budget-overrun
// mode switches.
func RunMC(s *MCSchedule, cfg MCConfig) (*MCReport, error) { return mc.Run(s, cfg) }

// Uniprocessor response-time analysis.

// ResponseTimes computes worst-case response times under preemptive
// fixed-priority uniprocessor scheduling (Joseph & Pandya iteration).
func ResponseTimes(net *Network, pr UniPriority) (map[string]Time, error) {
	return unisched.ResponseTimes(net, pr)
}

// UtilizationBound returns Σ m_i·C_i/T_i.
func UtilizationBound(net *Network) (Time, error) { return unisched.UtilizationBound(net) }

// Export helpers.

// ExportNetworkJSON serializes the network structure as indented JSON.
func ExportNetworkJSON(net *Network) (string, error) {
	return export.MarshalIndent(export.Network(net))
}

// ExportNetworkDOT renders the process network in Graphviz format.
func ExportNetworkDOT(net *Network) string { return export.NetworkDOT(net) }

// ExportTaskGraphJSON serializes a task graph as indented JSON.
func ExportTaskGraphJSON(tg *TaskGraph) (string, error) {
	return export.MarshalIndent(export.TaskGraph(tg))
}

// ExportScheduleJSON serializes a static schedule as indented JSON.
func ExportScheduleJSON(s *Schedule) (string, error) {
	return export.MarshalIndent(export.Schedule(s))
}

// ExportReportJSON serializes a runtime report as indented JSON.
func ExportReportJSON(r *Report) (string, error) {
	return export.MarshalIndent(export.Report(r))
}

// End-to-end latency analysis (the introduction's motivation: "without
// deterministic communication it is impossible to define and guarantee
// end-to-end timing constraints").
type (
	// ChainLatency summarizes measured end-to-end latencies.
	ChainLatency = analysis.ChainLatency
)

// MeasureChainLatency extracts per-sample end-to-end latencies along a
// same-rate process chain from a runtime report.
func MeasureChainLatency(rep *Report, chain []string) (ChainLatency, error) {
	return analysis.MeasureChainLatency(rep, chain)
}

// StaticChainLatency bounds the chain's worst-case latency from the static
// schedule.
func StaticChainLatency(s *Schedule, chain []string) (Time, error) {
	return analysis.StaticChainLatency(s, chain)
}

// WCETMargin bisects for the largest uniform WCET scaling that keeps the
// task graph schedulable on m processors — the provisioning headroom.
func WCETMargin(tg *TaskGraph, m int, resolution int64) (Time, error) {
	return analysis.WCETMargin(tg, m, resolution)
}

// ImportSchedule reconstructs a static schedule from ExportScheduleJSON
// output against an independently derived task graph.
func ImportSchedule(tg *TaskGraph, jsonText string) (*Schedule, error) {
	return export.ImportSchedule(tg, jsonText)
}

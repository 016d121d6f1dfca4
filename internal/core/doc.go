// Package core implements Fixed-Priority Process Networks (FPPN), the
// deterministic model of computation for real-time multiprocessor
// applications proposed by Poplavko et al. (DATE 2015).
//
// An FPPN is a set of processes, each attached one-to-one to an event
// generator (multi-periodic or sporadic, with burst size m, period T and a
// relative deadline d), communicating over internal channels (FIFO queues or
// blackboards with non-blocking reads) and external sample-indexed input and
// output channels. A functional-priority DAG orders every pair of processes
// that access the same channel; together with invocation time stamps it
// induces a unique execution order of jobs, making the sequences of values on
// all channels a function of the input data and event time stamps
// (Proposition 2.1 of the paper).
//
// The package provides:
//
//   - channel state implementations (FIFO, blackboard) with the paper's
//     non-blocking read semantics returning a data-availability indicator;
//   - event generators and validation of sporadic event traces against the
//     (m, T) burst constraint;
//   - a Network builder with validation of the FPPN well-formedness rules
//     (acyclic functional priority covering all channel-sharing pairs,
//     positive periods and deadlines, the sporadic "user process" subclass
//     restriction used for scheduling);
//   - invocation generation over a time horizon;
//   - a Machine that executes individual jobs against the shared channel
//     state while recording the paper's action traces (w(t), x?c, x!c, ...);
//   - the zero-delay semantics executor (Section II of the paper), used both
//     for functional simulation and as the determinism reference that the
//     real-time runtime in package plan must reproduce.
package core

package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/rational"
)

// Network is a fixed-priority process network under construction or after
// validation (Definition 2.1 of the paper): a directed process-network graph
// (P, C) of processes and internal channels, plus an acyclic
// functional-priority graph (P, FP) that must relate every pair of processes
// accessing the same channel.
//
// Builder methods record errors instead of failing immediately; Validate
// (or Build in the public API) reports all of them at once.
type Network struct {
	Name string

	procs     map[string]*Process
	procOrder []string
	chans     map[string]*Channel
	chanOrder []string
	fp        map[string]map[string]bool // fp[hi][lo]: hi -> lo
	extIn     map[string]string          // external input channel -> process
	extOut    map[string]string          // external output channel -> process

	errs []error
}

// NewNetwork returns an empty network with the given name.
func NewNetwork(name string) *Network {
	return &Network{
		Name:   name,
		procs:  make(map[string]*Process),
		chans:  make(map[string]*Channel),
		fp:     make(map[string]map[string]bool),
		extIn:  make(map[string]string),
		extOut: make(map[string]string),
	}
}

func (n *Network) errorf(format string, args ...any) {
	n.errs = append(n.errs, fmt.Errorf(format, args...))
}

// AddProcess adds a process with an explicit generator. It returns the
// process so the caller can keep a handle; configuration errors are
// accumulated and reported by Validate.
func (n *Network) AddProcess(name string, gen Generator, wcet Time, b Behavior) *Process {
	p := &Process{Name: name, Gen: gen, WCET: wcet, Behavior: b}
	if name == "" {
		n.errorf("process with empty name")
		return p
	}
	if _, dup := n.procs[name]; dup {
		n.errorf("duplicate process %q", name)
		return p
	}
	if err := gen.Validate(); err != nil {
		n.errorf("process %q: %v", name, err)
	}
	if wcet.Sign() < 0 {
		n.errorf("process %q: negative WCET %v", name, wcet)
	}
	p.pid = len(n.procOrder)
	n.procs[name] = p
	n.procOrder = append(n.procOrder, name)
	return p
}

// AddPeriodic adds a periodic process with burst size 1.
func (n *Network) AddPeriodic(name string, period, deadline, wcet Time, b Behavior) *Process {
	return n.AddProcess(name, Generator{Kind: Periodic, Period: period, Burst: 1, Deadline: deadline}, wcet, b)
}

// AddMultiPeriodic adds a periodic process producing bursts of m jobs.
func (n *Network) AddMultiPeriodic(name string, burst int, period, deadline, wcet Time, b Behavior) *Process {
	return n.AddProcess(name, Generator{Kind: Periodic, Period: period, Burst: burst, Deadline: deadline}, wcet, b)
}

// AddSporadic adds a sporadic process emitting at most burst events in any
// half-open interval of length period.
func (n *Network) AddSporadic(name string, burst int, period, deadline, wcet Time, b Behavior) *Process {
	return n.AddProcess(name, Generator{Kind: Sporadic, Period: period, Burst: burst, Deadline: deadline}, wcet, b)
}

// Connect adds an internal channel from writer to reader. Channel names are
// unique within the network.
func (n *Network) Connect(writer, reader, channel string, kind ChannelKind) *Channel {
	c := &Channel{Name: channel, Kind: kind, Writer: writer, Reader: reader}
	if channel == "" {
		n.errorf("channel with empty name (%s -> %s)", writer, reader)
		return c
	}
	if _, dup := n.chans[channel]; dup {
		n.errorf("duplicate channel %q", channel)
		return c
	}
	w, okW := n.procs[writer]
	r, okR := n.procs[reader]
	if !okW {
		n.errorf("channel %q: unknown writer process %q", channel, writer)
	}
	if !okR {
		n.errorf("channel %q: unknown reader process %q", channel, reader)
	}
	if !okW || !okR {
		return c
	}
	n.chans[channel] = c
	n.chanOrder = append(n.chanOrder, channel)
	w.outputs = append(w.outputs, channel)
	r.inputs = append(r.inputs, channel)
	return c
}

// ConnectInit adds a blackboard channel with an initial value.
func (n *Network) ConnectInit(writer, reader, channel string, initial Value) *Channel {
	c := n.Connect(writer, reader, channel, Blackboard)
	c.Initial = initial
	c.HasInitial = true
	return c
}

// Priority adds the functional-priority edge hi -> lo, meaning jobs of hi
// invoked at the same time stamp as jobs of lo execute first.
func (n *Network) Priority(hi, lo string) {
	if _, ok := n.procs[hi]; !ok {
		n.errorf("priority %s -> %s: unknown process %q", hi, lo, hi)
		return
	}
	if _, ok := n.procs[lo]; !ok {
		n.errorf("priority %s -> %s: unknown process %q", hi, lo, lo)
		return
	}
	if hi == lo {
		n.errorf("priority self-loop on %q", hi)
		return
	}
	m := n.fp[hi]
	if m == nil {
		m = make(map[string]bool)
		n.fp[hi] = m
	}
	m[lo] = true
}

// PriorityChain adds Priority edges along the given sequence of processes.
func (n *Network) PriorityChain(procs ...string) {
	for i := 0; i+1 < len(procs); i++ {
		n.Priority(procs[i], procs[i+1])
	}
}

// Input declares an external input channel read by the process. The k-th
// job of the process reads sample [k] of each of its external inputs.
func (n *Network) Input(process, channel string) {
	p, ok := n.procs[process]
	if !ok {
		n.errorf("input %q: unknown process %q", channel, process)
		return
	}
	if owner, dup := n.extIn[channel]; dup {
		n.errorf("external input %q attached to both %q and %q", channel, owner, process)
		return
	}
	n.extIn[channel] = process
	p.extIn = append(p.extIn, channel)
}

// Output declares an external output channel written by the process. The
// k-th job writes sample [k].
func (n *Network) Output(process, channel string) {
	p, ok := n.procs[process]
	if !ok {
		n.errorf("output %q: unknown process %q", channel, process)
		return
	}
	if owner, dup := n.extOut[channel]; dup {
		n.errorf("external output %q attached to both %q and %q", channel, owner, process)
		return
	}
	n.extOut[channel] = process
	p.extOut = append(p.extOut, channel)
}

// Process returns the named process, or nil.
func (n *Network) Process(name string) *Process { return n.procs[name] }

// Pid returns the named process's pid, its index in Processes, or -1.
func (n *Network) Pid(name string) int {
	if p, ok := n.procs[name]; ok {
		return p.pid
	}
	return -1
}

// Processes returns all processes in insertion order.
func (n *Network) Processes() []*Process {
	out := make([]*Process, 0, len(n.procOrder))
	for _, name := range n.procOrder {
		if p, ok := n.procs[name]; ok {
			out = append(out, p)
		}
	}
	return out
}

// ProcessNames returns process names in insertion order.
func (n *Network) ProcessNames() []string {
	out := make([]string, len(n.procOrder))
	copy(out, n.procOrder)
	return out
}

// Channel returns the named internal channel, or nil.
func (n *Network) Channel(name string) *Channel { return n.chans[name] }

// Channels returns all internal channels in insertion order.
func (n *Network) Channels() []*Channel {
	out := make([]*Channel, 0, len(n.chanOrder))
	for _, name := range n.chanOrder {
		if c, ok := n.chans[name]; ok {
			out = append(out, c)
		}
	}
	return out
}

// ExternalInputs returns all external input channel names, sorted.
func (n *Network) ExternalInputs() []string { return sortedKeys(n.extIn) }

// ExternalOutputs returns all external output channel names, sorted.
func (n *Network) ExternalOutputs() []string { return sortedKeys(n.extOut) }

// HasPriority reports whether the FP edge hi -> lo exists (directly; see
// PriorityRelated for the symmetric closure used by the task-graph rule).
func (n *Network) HasPriority(hi, lo string) bool { return n.fp[hi][lo] }

// PriorityRelated reports whether p ⋈ q: (p, q) ∈ FP or (q, p) ∈ FP.
func (n *Network) PriorityRelated(p, q string) bool {
	return n.fp[p][q] || n.fp[q][p]
}

// PriorityEdges returns all FP edges as [hi, lo] pairs, sorted.
func (n *Network) PriorityEdges() [][2]string {
	var out [][2]string
	for hi, los := range n.fp {
		for lo := range los {
			out = append(out, [2]string{hi, lo})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// PriorityPids returns all FP edges as [hi, lo] pid pairs, sorted: the
// pid form of PriorityEdges.
func (n *Network) PriorityPids() [][2]int {
	var out [][2]int
	for hi, los := range n.fp {
		for lo := range los {
			out = append(out, [2]int{n.procs[hi].pid, n.procs[lo].pid})
		}
	}
	slices.SortFunc(out, func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return out
}

// Validate checks FPPN well-formedness:
//
//   - all accumulated builder errors;
//   - the functional-priority graph is acyclic;
//   - FP relates the writer and reader of every internal channel
//     (the paper's requirement (p1,p2) ∈ C ⇒ p1→p2 ∨ p2→p1).
//
// It is a thin adapter over Problems, which exposes the same rules as
// structured diagnostics.
func (n *Network) Validate() error {
	return joinProblems(n.Problems())
}

// UserOf returns the unique periodic "user" process u(p) of a sporadic
// process p, as required by the schedulable FPPN subclass of Section III:
// p must be connected by channels to exactly one other process, which must
// be periodic with T_u(p) <= T_p.
func (n *Network) UserOf(sporadic string) (*Process, error) {
	p, ok := n.procs[sporadic]
	if !ok {
		return nil, fmt.Errorf("unknown process %q", sporadic)
	}
	if !p.IsSporadic() {
		return nil, fmt.Errorf("process %q is not sporadic", sporadic)
	}
	users := make(map[string]bool)
	for _, name := range n.chanOrder {
		c := n.chans[name]
		if c.Writer == sporadic && c.Reader != sporadic {
			users[c.Reader] = true
		}
		if c.Reader == sporadic && c.Writer != sporadic {
			users[c.Writer] = true
		}
	}
	switch len(users) {
	case 0:
		return nil, fmt.Errorf("sporadic process %q has no user process", sporadic)
	case 1:
		// fall through
	default:
		return nil, fmt.Errorf("sporadic process %q has %d users %v, want exactly one",
			sporadic, len(users), sortedKeys(users))
	}
	var uname string
	for u := range users {
		uname = u
	}
	u := n.procs[uname]
	if u.IsSporadic() {
		return nil, fmt.Errorf("user %q of sporadic process %q is itself sporadic", uname, sporadic)
	}
	if !u.Period().LessEq(p.Period()) {
		return nil, fmt.Errorf("user %q period %v exceeds sporadic %q period %v",
			uname, u.Period(), sporadic, p.Period())
	}
	return u, nil
}

// ValidateSchedulable checks, in addition to Validate, the restrictions of
// the schedulable FPPN subclass: every sporadic process has a unique
// periodic user with at most the same period, and every process has a
// positive WCET (needed by the scheduler). Like Validate, it is a thin
// adapter over the structured problem lists.
func (n *Network) ValidateSchedulable() error {
	return joinProblems(append(n.Problems(), n.SchedulableProblems()...))
}

// TopoOrder returns the processes in the default linear extension of the
// FP DAG (see PriorityOrder). It returns an error naming the processes on
// or behind a cycle if FP is cyclic.
func (n *Network) TopoOrder() ([]string, error) {
	rank, ok := n.fpOrder(-1)
	if !ok {
		var stuck []string
		for i, r := range rank {
			if r < 0 {
				stuck = append(stuck, n.procOrder[i])
			}
		}
		sort.Strings(stuck)
		return nil, fmt.Errorf("functional priority graph has a cycle through %s",
			strings.Join(stuck, ", "))
	}
	order := make([]string, len(rank))
	for i, r := range rank {
		order[r] = n.procOrder[i]
	}
	return order, nil
}

// CloneStructure returns a structural copy of the network — processes
// (WCETs multiplied by wcetScale, behaviours shared), channels, functional
// priorities and external I/O. It is used by analyses that re-derive task
// graphs under modified WCETs (e.g. sensitivity margins).
func (n *Network) CloneStructure(wcetScale rational.Rat) *Network {
	out := NewNetwork(n.Name)
	for _, p := range n.Processes() {
		out.AddProcess(p.Name, p.Gen, p.WCET.Mul(wcetScale), p.Behavior)
	}
	for _, c := range n.Channels() {
		nc := out.Connect(c.Writer, c.Reader, c.Name, c.Kind)
		nc.Initial, nc.HasInitial = c.Initial, c.HasInitial
		nc.DrainReads, nc.WriteGatedBy = c.DrainReads, c.WriteGatedBy
	}
	for _, e := range n.PriorityEdges() {
		out.Priority(e[0], e[1])
	}
	for _, p := range n.Processes() {
		for _, ch := range p.ExternalInputs() {
			out.Input(p.Name, ch)
		}
		for _, ch := range p.ExternalOutputs() {
			out.Output(p.Name, ch)
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

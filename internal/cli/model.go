package cli

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/apps/fft"
	"repro/internal/apps/fms"
	"repro/internal/apps/signal"
	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/nettest"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// Model couples a built network with its canonical serialized form and the
// content digest derived from it. The digest identifies the model's
// structure and timing — process set, generators, channels, priorities and
// external I/O — independently of how the network object was constructed,
// so every pipeline stage cached under it (task graph, schedule, compiled
// plan) is shared by all clients submitting the same model.
type Model struct {
	// Name is the spec the model was loaded from ("fms", "scale:10k").
	Name string
	// Net is the built network.
	Net *core.Network
	// Canonical is the canonical JSON the digest covers.
	Canonical []byte
	// Digest is the lowercase hex sha256 of Canonical.
	Digest string
}

// CanonicalJSON serializes the network's structure to its canonical JSON
// form: the export.Network document marshalled compactly. Process and
// channel order follow the network's deterministic insertion order and
// encoding/json sorts map keys, so identical models always produce
// identical bytes.
func CanonicalJSON(net *core.Network) ([]byte, error) {
	data, err := json.Marshal(export.Network(net))
	if err != nil {
		return nil, fmt.Errorf("cli: canonicalize %q: %w", net.Name, err)
	}
	return data, nil
}

// DigestNetwork content-addresses a network: the lowercase hex sha256 of
// its canonical JSON.
func DigestNetwork(net *core.Network) (string, error) {
	data, err := CanonicalJSON(net)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// scalePrefix selects the generated scale-tier networks: "scale:10k" is
// nettest.Scale at a 10000 jobs-per-hyperperiod target.
const scalePrefix = "scale:"

// scaleSeed fixes the generator seed, so "scale:N" names one reproducible
// network: the same digest on every load, on every machine.
const scaleSeed = 1

// parseScaleTarget decodes the job target of a "scale:N" spec; N accepts a
// plain integer or a "k" suffix ("scale:10k" = 10000 jobs). Targets above
// taskgraph.MaxFrameJobs, which Derive would reject only after building
// the network, are usage errors.
func parseScaleTarget(spec string) (int, error) {
	raw := strings.TrimPrefix(spec, scalePrefix)
	mult := 1
	if cut, ok := strings.CutSuffix(raw, "k"); ok {
		raw, mult = cut, 1000
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n <= 0 {
		return 0, Usagef("bad scale spec %q (want scale:10k or scale:25000)", spec)
	}
	if n > taskgraph.MaxFrameJobs/mult {
		return 0, Usagef("scale spec %q asks for more than %d jobs per frame", spec, taskgraph.MaxFrameJobs)
	}
	return n * mult, nil
}

// LoadModel resolves a model spec to a built, canonicalized and digested
// network. Specs are either registry application names (apps.Names) or
// generated scale-tier networks ("scale:10k"). Unknown specs are usage
// errors (ExitUsage).
func LoadModel(spec string) (*Model, error) {
	var net *core.Network
	if strings.HasPrefix(spec, scalePrefix) {
		target, err := parseScaleTarget(spec)
		if err != nil {
			return nil, err
		}
		net = nettest.Scale(rand.New(rand.NewSource(scaleSeed)), nettest.ScaleOptions{TargetJobs: target})
	} else {
		var err error
		if net, err = apps.Build(spec); err != nil {
			return nil, Usagef("%v", err)
		}
	}
	canonical, err := CanonicalJSON(net)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(canonical)
	return &Model{
		Name:      spec,
		Net:       net,
		Canonical: canonical,
		Digest:    hex.EncodeToString(sum[:]),
	}, nil
}

// ModelNames lists the loadable model specs: every registry application
// plus the scale-tier pattern.
func ModelNames() []string {
	return append(apps.Names(), scalePrefix+"<jobs>")
}

// fmsInputsPerFrame is the SensorInput job count of one 10 s FMS frame.
const fmsInputsPerFrame = 50

// genericInputsPerFrame over-provisions external inputs for models without
// a dedicated input builder: no generated or registry process exceeds this
// many invocations per hyperperiod frame, and unread samples are free.
const genericInputsPerFrame = 64

// Inputs builds the deterministic external-input samples for a run of the
// given frame count — the same per-application glue cmd/fppnsim used to
// carry privately, shared here by the CLIs and the daemon.
func (m *Model) Inputs(frames int) map[string][]core.Value {
	switch {
	case strings.HasPrefix(m.Name, "signal"):
		return signal.Inputs(frames)
	case strings.HasPrefix(m.Name, "fft"):
		fs := make([]fft.Frame, frames)
		for i := range fs {
			fs[i] = fft.Frame{complex(float64(i+1), 0), 1, -1, complex(0, 1)}
		}
		return fft.Inputs(fs)
	case strings.HasPrefix(m.Name, "fms"):
		return fms.Inputs(frames * fmsInputsPerFrame)
	default:
		return nettest.Inputs(m.Net, frames*genericInputsPerFrame)
	}
}

// PortfolioName selects the portfolio over all heuristics (best feasible
// makespan) instead of a single schedule-priority order.
const PortfolioName = "portfolio"

// ParseHeuristic resolves a heuristic name ("alap-edf", "b-level",
// "deadline-monotonic", "edf") to the sched constant; unknown names are
// usage errors. PortfolioName is not a heuristic — callers that accept it
// must test for it first.
func ParseHeuristic(name string) (sched.Heuristic, error) {
	for _, h := range sched.Heuristics {
		if h.String() == name {
			return h, nil
		}
	}
	return 0, Usagef("unknown heuristic %q", name)
}

package nettest

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/rational"
)

// TimedProc is one process of an extreme-timing network: its kind,
// burst and its period, deadline and WCET as numerator/denominator pairs.
type TimedProc struct {
	Sporadic bool
	Burst    int
	Times    [6]int64 // period, deadline, WCET: num, den each
}

// timedRecord is the encoded size of one TimedProc: a flag byte (bit 0
// sporadic, bits 1-2 the burst minus one) and six little-endian int64s.
const timedRecord = 1 + 6*8

// EncodeTiming is the fuzz-argument form of the processes TimingNet
// builds.
func EncodeTiming(procs ...TimedProc) []byte {
	var out []byte
	for _, p := range procs {
		flag := byte(p.Burst-1) << 1 & 6
		if p.Sporadic {
			flag |= 1
		}
		out = append(out, flag)
		for _, v := range p.Times {
			out = binary.LittleEndian.AppendUint64(out, uint64(v))
		}
	}
	return out
}

// TimingNet decodes up to four processes p0.. from spec. Every later
// process is joined to p0 by a blackboard and an FP edge — a sporadic one
// writes to p0, its user, with priority over it — so the timing alone
// decides what an analysis meets. Zero denominators read as 1 and
// math.MinInt64 parts as math.MinInt64+1, so every value is a valid
// rational.
func TimingNet(spec []byte) *core.Network {
	net := core.NewNetwork("timing")
	part := func(b []byte) int64 {
		return max(int64(binary.LittleEndian.Uint64(b)), math.MinInt64+1)
	}
	for i := 0; i < 4 && len(spec) >= timedRecord; i++ {
		flag, vals := spec[0], spec[1:timedRecord]
		spec = spec[timedRecord:]
		var t [3]rational.Rat
		for k := range t {
			num, den := part(vals[16*k:]), part(vals[16*k+8:])
			if den == 0 {
				den = 1
			}
			t[k] = rational.New(num, den)
		}
		name, burst := fmt.Sprintf("p%d", i), 1+int(flag>>1&3)
		if flag&1 != 0 {
			net.AddSporadic(name, burst, t[0], t[1], t[2], core.NopBehavior)
			if i > 0 {
				net.ConnectInit(name, "p0", name+"_p0", 0)
				net.Priority(name, "p0")
			}
			continue
		}
		net.AddMultiPeriodic(name, burst, t[0], t[1], t[2], core.NopBehavior)
		if i > 0 {
			net.ConnectInit("p0", name, "p0_"+name, 0)
			net.Priority("p0", name)
		}
	}
	return net
}

// ExtremeTiming generates two to four processes whose periods and
// deadlines sit at the edges of the integer timescale: 2^40/k or 2^62/k,
// as an exact fraction or rounded down to whole seconds, with WCETs at a
// fraction of them.
func ExtremeTiming(rng *rand.Rand) []byte {
	ks := []int64{1, 2, 3, 5, 7, 1<<24 + 1, 1<<31 - 1}
	edge := func() (num, den int64) {
		e := []int64{1 << 40, 1 << 62}[rng.Intn(2)]
		k := ks[rng.Intn(len(ks))]
		if rng.Intn(3) == 0 {
			k = 1 + rng.Int63n(1<<31)
		}
		if rng.Intn(2) == 0 {
			return e / k, 1
		}
		return e, k
	}
	procs := make([]TimedProc, 2+rng.Intn(3))
	for i := range procs {
		p := &procs[i]
		p.Sporadic = i > 0 && rng.Intn(3) == 0
		p.Burst = 1 + rng.Intn(4)
		p.Times[0], p.Times[1] = edge()
		if p.Sporadic {
			// A sporadic process keeps its user's period; its deadline
			// is the extreme value.
			p.Times[0], p.Times[1] = procs[0].Times[0], procs[0].Times[1]
		}
		p.Times[2], p.Times[3] = p.Times[0], p.Times[1]
		if rng.Intn(2) == 0 {
			p.Times[2], p.Times[3] = edge()
		}
		// The WCET is a fraction of the period or, always for a
		// sporadic process, of the deadline.
		num, den := p.Times[0], p.Times[1]
		if p.Sporadic || rng.Intn(2) == 0 {
			num, den = p.Times[2], p.Times[3]
		}
		f := []int64{2, 3, 4, 8, 1000}[rng.Intn(5)]
		p.Times[4], p.Times[5] = num, den*f
		if den > math.MaxInt64/f {
			p.Times[4], p.Times[5] = num/f, den
		}
	}
	return EncodeTiming(procs...)
}

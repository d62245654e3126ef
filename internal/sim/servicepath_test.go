package sim

import (
	"math"
	"testing"

	"cuttlesys/internal/config"
	"cuttlesys/internal/pin"
	"cuttlesys/internal/workload"
)

// transcendentalCanary hashes math.Exp, Log and Pow over a fixed grid,
// plus one product-sum a compiler may fuse into an FMA: the host
// dependence ROADMAP item 19 describes. Where it differs from the
// recording host's (amd64, FMA), the simulator's bits differ too.
func transcendentalCanary() uint64 {
	h := pin.New()
	for i := 0; i < 256; i++ {
		x := 0.013 + float64(i)*0.0371
		y := x * (1 + 1.0/3)
		h.Floats(math.Exp(-x), math.Exp(x/3), math.Log(x), math.Pow(x, 0.61), math.Pow(1+x, -1.7), x*y+0.1)
	}
	return h.Sum64()
}

// scriptInjector disrupts the script's phase i (phases start i·dur
// apart) with at[i], and leaves every other phase healthy.
type scriptInjector struct {
	dur float64
	at  map[int]Disruption
}

func (s scriptInjector) Disrupt(t float64) Disruption {
	return s.at[int(math.Round(t/s.dur))]
}

// servicePathScript drives one machine per service count (1, 2, 3) and
// core kind through a fixed phase script and folds every PhaseResult
// field into h, the per-service fields service by service, primary
// first.
func servicePathScript(t *testing.T, h *pin.Hash) {
	const dur = 0.02
	names := []string{"xapian", "silo", "masstree"}
	_, test := workload.SplitTrainTest(1, 16)
	inj := scriptInjector{dur: dur, at: map[int]Disruption{
		9:  {FailedLC: 3, FailedBatch: 5},
		10: {SlowLC: 0.6, SlowBatch: 0.75},
		11: {SlowLC: 5e-324}, // zero throughput under load
		13: {FailedLC: 2, FailedBatch: 20, SlowBatch: 0.9},
		14: {SlowLC: 5e-324},
	}}
	for _, reconf := range []bool{true, false} {
		for n := 1; n <= 3; n++ {
			apps := make([]*workload.Profile, n)
			for k := range apps {
				apps[k] = mustApp(t, names[k])
			}
			spec := Spec{
				Seed:           uint64(40 + n),
				LC:             apps[0],
				ExtraLCs:       apps[1:],
				Batch:          workload.Mix(uint64(n), test, 16),
				Reconfigurable: reconf,
			}
			m := New(spec)
			if !reconf {
				m.peakBW = 35 // contended: the bandwidth fixed point iterates
			}
			m.SetInjector(inj)
			cores := 16 / n
			for i := 0; i < 16; i++ {
				a := Uniform(len(m.Batch()), true, cores, config.Widest, config.OneWay)
				a.LCCache = config.FourWays
				for k := 1; k < n; k++ {
					a.ExtraLC = append(a.ExtraLC, LCAssign{Cores: cores, Core: config.Widest, Cache: config.TwoWays})
				}
				gate := func(from, to int) {
					for j := from; j < to; j++ {
						a.Batch[j].Gated = true
					}
				}
				switch i {
				case 1, 2: // profiling windows at both extremes
					c := config.Widest
					if i == 2 {
						c = config.Narrowest
					}
					a.LCCore, a.LCHalfBlend = c, true
					for x := range a.ExtraLC {
						a.ExtraLC[x].Core, a.ExtraLC[x].HalfBlend = c, true
					}
					for j := range a.Batch {
						if j%2 == 1 {
							a.Batch[j].Core = config.Narrowest
						}
					}
				case 3: // NoPartition in 3–7, 13, 15: memo misses, hits, evictions
					a.NoPartition = true
					gate(0, 4)
				case 4:
					a.NoPartition = true
					gate(0, 4)
					a.LCCore = config.Narrowest
					a.Batch[5].Core = config.Narrowest
				case 5:
					a.NoPartition = true
					gate(4, 8)
				case 6:
					a.NoPartition = true
					gate(0, 4)
				case 7:
					a.NoPartition = true
				case 8: // primary DVFS, batch DVFS
					a.LCFreqGHz = 2.4
					for j := 0; j < len(a.Batch); j += 3 {
						a.Batch[j].FreqGHz = 3.1
					}
				case 13: // fail-stop under NoPartition (a memo miss) and profiling blend
					a.NoPartition = true
					gate(8, 12)
					a.LCHalfBlend = true
					if n > 1 {
						a.ExtraLC[n-2].HalfBlend = true
						a.ExtraLC[n-2].Core = config.Narrowest
					}
				case 15: // NoPartition: phase 13's gated set, one more service core
					a.NoPartition = true
					gate(8, 12)
					if n == 1 {
						a.LCCores++
					} else {
						a.ExtraLC[n-2].Cores++
					}
				}
				qps := make([]float64, n)
				for k, app := range apps {
					qps[k] = (0.2 + 0.05*float64(i%12) + 0.03*float64(k)) * app.MaxQPS
				}
				if i == 14 {
					qps[0] = 0 // idle zero-throughput phase
				}
				var pr PhaseResult
				if n == 1 {
					pr = m.Run(a, dur, qps[0])
				} else {
					pr = m.RunMulti(a, dur, qps)
				}
				hashPhase(h, pr)
			}
		}
	}
}

func hashPhase(h *pin.Hash, pr PhaseResult) {
	h.Value(pr.Dur, pr.BatchBIPS, pr.BatchInstrB, pr.BatchPowerW, pr.PowerW, pr.Inflation)
	h.Value(pr.EffWays, pr.FailedLC, pr.FailedBatch)
	for _, s := range pr.LC {
		h.Value(s.Sojourns, s.MeanSvc, s.CorePowerW, s.EffWays)
	}
}

// TestServicePathBitsPinned pins the bits of every phase result on
// machines with one, two and three latency-critical services, on
// reconfigurable and fixed cores, across profiling blends, shared-LLC
// equilibria (memo hits and misses), primary DVFS, fail-stop,
// fail-slow and zero-throughput phases. It is the tier-1 check that a
// refactor of the per-service path moves nothing.
func TestServicePathBitsPinned(t *testing.T) {
	pin.Canary(t, "canary", transcendentalCanary(), "math.Exp/Log/Pow or FMA fusion")
	h := pin.New()
	servicePathScript(t, h)
	pin.Check(t, "service-path", h.Sum64())
}

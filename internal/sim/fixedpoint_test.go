package sim

import (
	"math"
	"reflect"
	"testing"

	"cuttlesys/internal/config"
	"cuttlesys/internal/rng"
	"cuttlesys/internal/workload"
)

// runMultiReference is RunMulti without its three short-circuits: the
// bandwidth fixed point runs all three iterations unconditionally, the
// occupancies come from the uncached equilibrium, and the miss ratios
// straight from each profile's miss curve rather than the table's
// staged canonical values.
func runMultiReference(m *Machine, alloc Allocation, durSec float64, qps []float64) PhaseResult {
	ph := m.newPhase(&alloc, durSec, qps)
	var lc []float64
	ph.effBatch, lc = effectiveWaysUncached(m, &alloc)
	ph.missBatch = make([]float64, len(m.batch))
	for i, w := range ph.effBatch {
		ph.missBatch[i] = m.batch[i].MissRatio(w)
	}
	for k, app := range m.Services() {
		ph.svc[k].eff = lc[k]
		ph.svc[k].miss = app.MissRatio(lc[k])
	}
	inflation := 1.0
	for iter := 0; iter < 3; iter++ {
		inflation = bandwidthInflation(m.dramTraffic(&ph, inflation) / m.peakBW)
	}
	var res PhaseResult
	m.execute(&res, &ph, durSec, inflation, make([][]float64, len(m.lcs)))
	return res
}

// effectiveWaysUncached is effectiveWays without the memo: the batch
// jobs' occupancies and one per service, primary first.
func effectiveWaysUncached(m *Machine, alloc *Allocation) (batch, lc []float64) {
	if alloc.NoPartition {
		return effectiveWaysReference(m, alloc)
	}
	batch = make([]float64, len(m.batch))
	for i, b := range alloc.Batch {
		if !b.Gated {
			batch[i] = b.Cache.Ways()
		}
	}
	for k := range m.lcs {
		lc = append(lc, alloc.Service(k).Cache.Ways())
	}
	return batch, lc
}

// sameBits reports whether two PhaseResult fields hold the same bits:
// float64s by Float64bits (so NaN equals NaN and -0 differs from +0),
// slices element by element.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Int:
		return a.Int() == b.Int()
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	}
	panic("sameBits: unhandled kind " + a.Kind().String())
}

// phaseFaults is a deterministic injector that cycles through healthy
// phases, fail-stopped LC and batch cores, and fail-slow clocks.
type phaseFaults struct{}

func (phaseFaults) Disrupt(t float64) Disruption {
	switch int(math.Round(t*1e3)) % 4 {
	case 1:
		return Disruption{FailedLC: 3, FailedBatch: 5, SlowLC: 1, SlowBatch: 1}
	case 2:
		return Disruption{SlowLC: 0.6, SlowBatch: 0.75}
	case 3:
		return Disruption{FailedLC: 64, FailedBatch: 64, SlowLC: 0.9, SlowBatch: 1}
	}
	return Disruption{}
}

// randomAlloc draws a valid allocation for m: random gating, core
// configurations, DVFS, profiling blends and, when partitioned, cache
// allocations that include non-canonical way counts.
func randomAlloc(r *rng.RNG, m *Machine, noPartition bool) Allocation {
	cores := config.AllCores()
	caches := []config.CacheAlloc{config.HalfWay, config.OneWay, config.TwoWays, 3}
	pick := func() config.CacheAlloc { return caches[r.Intn(len(caches))] }
	a := Allocation{Batch: make([]BatchAssign, len(m.batch)), NoPartition: noPartition}
	for k := range m.lcs {
		if k == 0 {
			a.SetService(0, LCAssign{Cores: 2 + r.Intn(10), Core: cores[r.Intn(len(cores))], Cache: pick(), HalfBlend: r.Intn(4) == 0})
			if r.Intn(3) == 0 {
				a.LCFreqGHz = 2.4 + r.Float64()*(config.BaseFreqGHz-2.4)
			}
			continue
		}
		a.SetService(k, LCAssign{
			Cores: 1 + r.Intn(6), Core: cores[r.Intn(len(cores))], Cache: pick(), HalfBlend: r.Intn(4) == 0,
		})
	}
	for i := range a.Batch {
		a.Batch[i] = BatchAssign{Core: cores[r.Intn(len(cores))], Cache: pick(), Gated: r.Intn(4) == 0}
		if r.Intn(3) == 0 {
			a.Batch[i].FreqGHz = 2.4 + r.Float64()*(config.BaseFreqGHz-2.4)
		}
	}
	if !noPartition && a.TotalWays(m.LC() != nil) > config.LLCWays {
		for i := range a.Batch {
			a.Batch[i].Cache = config.HalfWay
		}
	}
	return a
}

func cloneAlloc(a Allocation) Allocation {
	a.Batch = append([]BatchAssign(nil), a.Batch...)
	a.ExtraLC = append([]LCAssign(nil), a.ExtraLC...)
	return a
}

// TestRunMultiMatchesUnconditionalLoop pins the two short-circuits in
// RunMulti — the bandwidth fixed point stopping once an iteration
// returns the inflation it started from, and the memoised unpartitioned
// equilibrium — to the loop they replace: every PhaseResult field,
// Float64bits-equal, phase after phase on twin machines whose queues
// must therefore stay in lock step.
func TestRunMultiMatchesUnconditionalLoop(t *testing.T) {
	xapian, silo := mustApp(t, "xapian"), mustApp(t, "silo")
	_, test := workload.SplitTrainTest(1, 16)
	cases := []struct {
		name   string
		spec   Spec
		faults bool
		// nanLoad offers NaN queries per second to the primary service,
		// so its utilisation, the DRAM traffic and the inflation are NaN.
		nanLoad bool
	}{
		{name: "reconfigurable", spec: Spec{LC: xapian, Reconfigurable: true}},
		{name: "fixed cores", spec: Spec{LC: silo}},
		{name: "batch only", spec: Spec{Reconfigurable: true}},
		{name: "extra services", spec: Spec{LC: xapian, ExtraLCs: []*workload.Profile{silo}, Reconfigurable: true}},
		{name: "faults", spec: Spec{LC: xapian, ExtraLCs: []*workload.Profile{silo}, Reconfigurable: true}, faults: true},
		{name: "saturated", spec: Spec{LC: silo, PeakBWGBs: 12, Reconfigurable: true}},
		{name: "saturated with faults", spec: Spec{LC: xapian, PeakBWGBs: 8}, faults: true},
		{name: "infinite utilisation", spec: Spec{LC: xapian, PeakBWGBs: 5e-324, Reconfigurable: true}},
		{name: "NaN traffic", spec: Spec{LC: xapian, ExtraLCs: []*workload.Profile{silo}}, nanLoad: true},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(uint64(100 + ci))
			spec := tc.spec
			spec.Seed = uint64(ci + 1)
			spec.Batch = workload.Mix(r.Uint64(), test, 16)
			got, want := New(spec), New(spec)
			if tc.faults {
				got.SetInjector(phaseFaults{})
				want.SetInjector(phaseFaults{})
			}
			// A small pool of allocations revisited in random order, so
			// the memo both hits and evicts. Each base comes with variants
			// that keep its gated set but move one other key input, and
			// one that redraws everything the key leaves out.
			var pool []Allocation
			for i := 0; i < 3; i++ {
				base := randomAlloc(r, got, i < 2)
				pool = append(pool, base)
				if base.LCCores > 0 {
					v := cloneAlloc(base)
					v.LCCores++
					pool = append(pool, v)
				}
				if len(base.ExtraLC) > 0 {
					v := cloneAlloc(base)
					v.ExtraLC[0].Cores++
					pool = append(pool, v)
				}
				if base.NoPartition {
					v := randomAlloc(r, got, true)
					for j := range v.Batch {
						v.Batch[j].Gated = base.Batch[j].Gated
					}
					v.LCCores = base.LCCores
					for x := range v.ExtraLC {
						v.ExtraLC[x].Cores = base.ExtraLC[x].Cores
					}
					pool = append(pool, v)
					p := cloneAlloc(base)
					p.NoPartition = false
					if p.TotalWays(spec.LC != nil) > config.LLCWays {
						for j := range p.Batch {
							p.Batch[j].Cache = config.HalfWay
						}
					}
					pool = append(pool, p)
				}
			}
			contended, unsettled := 0, 0
			for p := 0; p < 40; p++ {
				alloc := pool[r.Intn(len(pool))]
				qps := make([]float64, 0, 1+len(spec.ExtraLCs))
				if spec.LC != nil {
					qps = append(qps, (0.2+0.6*r.Float64())*spec.LC.MaxQPS)
					if tc.nanLoad && p%2 == 1 {
						qps[0] = math.NaN()
					}
				}
				for _, x := range spec.ExtraLCs {
					qps = append(qps, (0.2+0.6*r.Float64())*x.MaxQPS)
				}
				dur := []float64{0.001, 0.0061, 0.0929}[p%3]
				g := got.RunMulti(alloc, dur, qps)
				w := runMultiReference(want, alloc, dur, qps)
				gv, wv := reflect.ValueOf(g), reflect.ValueOf(w)
				for f := 0; f < gv.NumField(); f++ {
					if !sameBits(gv.Field(f), wv.Field(f)) {
						t.Fatalf("phase %d: %s = %v, unconditional loop %v",
							p, gv.Type().Field(f).Name, gv.Field(f), wv.Field(f))
					}
				}
				if w.Inflation != 1 {
					contended++
				}
				if math.IsNaN(w.Inflation) {
					unsettled++
				}
			}
			saturated := spec.PeakBWGBs != 0
			if saturated && contended == 0 {
				t.Fatal("no phase contended for bandwidth; the case does not exercise the full loop")
			}
			if tc.nanLoad && unsettled == 0 {
				t.Fatal("no phase had NaN inflation")
			}
			if b1, l1 := got.SurfaceStats(); !saturated {
				if _, l2 := want.SurfaceStats(); b1 == 0 || l1 >= l2 {
					t.Fatalf("short-circuited run made %d table lookups, unconditional loop %d", l1, l2)
				}
			}
		})
	}
}

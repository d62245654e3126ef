package sim

import (
	"math"
	"testing"

	"cuttlesys/internal/config"
	"cuttlesys/internal/rng"
	"cuttlesys/internal/workload"
)

// effectiveWaysReference is the unpartitioned fixed point as it was
// written before the miss ratio was kept between the two loops: every
// iteration evaluates each sharer's curve twice at the same occupancy.
func effectiveWaysReference(m *Machine, alloc *Allocation) (batch, lc []float64) {
	type sharer struct {
		weight float64
		miss   func(float64) float64
		ways   float64
	}
	var sharers []sharer
	for i, b := range alloc.Batch {
		if !b.Gated {
			sharers = append(sharers, sharer{weight: m.batch[i].MemFrac * m.batch[i].L1MissRate, miss: m.batch[i].MissRatio})
		}
	}
	for k, app := range m.Services() {
		sharers = append(sharers, sharer{weight: app.MemFrac * app.L1MissRate * float64(alloc.Service(k).Cores), miss: app.MissRatio})
	}
	equal := float64(config.LLCWays) / float64(len(sharers))
	for i := range sharers {
		sharers[i].ways = equal
	}
	for iter := 0; iter < 8; iter++ {
		total := 0.0
		for i := range sharers {
			total += sharers[i].weight * sharers[i].miss(sharers[i].ways)
		}
		if total <= 0 {
			break
		}
		for i := range sharers {
			insertion := float64(config.LLCWays) * sharers[i].weight * sharers[i].miss(sharers[i].ways) / total
			sharers[i].ways = 0.5*sharers[i].ways + 0.5*(0.25*equal+0.75*insertion)
		}
	}
	batch = make([]float64, len(alloc.Batch))
	si := 0
	for i, b := range alloc.Batch {
		if !b.Gated {
			batch[i] = sharers[si].ways
			si++
		}
	}
	for range m.Services() {
		lc = append(lc, sharers[si].ways)
		si++
	}
	return batch, lc
}

func TestEffectiveWaysMatchesTwoEvaluationLoop(t *testing.T) {
	xapian, silo := mustApp(t, "xapian"), mustApp(t, "silo")
	_, test := workload.SplitTrainTest(1, 16)
	r := rng.New(9)
	for trial := 0; trial < 60; trial++ {
		spec := Spec{Seed: 1, Batch: workload.Mix(r.Uint64(), test, 16), Reconfigurable: true}
		a := Uniform(16, false, 0, config.Widest, config.OneWay)
		if trial%3 > 0 {
			spec.LC = xapian
			a.SetService(0, LCAssign{Cores: 4 + r.Intn(8), Core: config.Widest, Cache: config.OneWay})
		}
		if trial%3 > 1 {
			spec.ExtraLCs = []*workload.Profile{silo}
			a.ExtraLC = []LCAssign{{Cores: 2 + r.Intn(6), Core: config.Widest, Cache: config.OneWay}}
		}
		a.NoPartition = true
		for i := range a.Batch {
			a.Batch[i].Gated = r.Intn(4) == 0
		}
		m := New(spec)
		wantB, wantLC := effectiveWaysReference(m, &a)
		want := append(wantB, wantLC...)
		// The first call solves, the second is served by the memo.
		for call := 0; call < 2; call++ {
			ph := m.newPhase(&a, 0.001, make([]float64, len(m.Services())))
			m.effectiveWays(&ph)
			got := ph.effBatch
			for _, s := range ph.svc {
				got = append(got, s.eff)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d call %d: %d occupancies, reference has %d", trial, call, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d call %d sharer %d: %v, two-evaluation loop %v", trial, call, i, got[i], want[i])
				}
			}
		}
	}
}

// BenchmarkEffectiveWays prices the unpartitioned equilibrium as the
// substrate's baselines see it (16 batch jobs, a quarter gated, one LC
// service): solved, and served from the per-machine memo.
func BenchmarkEffectiveWays(b *testing.B) {
	_, test := workload.SplitTrainTest(1, 16)
	m := New(Spec{Seed: 1, LC: mustApp(b, "silo"), Batch: workload.Mix(3, test, 16)})
	a := Uniform(16, true, 16, config.Widest, config.OneWay)
	a.NoPartition = true
	for i := 0; i < 16; i += 4 {
		a.Batch[i].Gated = true
	}
	ph := m.newPhase(&a, 0.001, []float64{0})
	ph.effBatch = make([]float64, 16)
	b.Run("solve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clear(ph.effBatch)
			m.lruWays(&a, ph.effBatch, ph.svc)
		}
	})
	b.Run("memo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.effectiveWays(&ph)
		}
	})
}

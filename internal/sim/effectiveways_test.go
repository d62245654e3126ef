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
func effectiveWaysReference(m *Machine, alloc *Allocation) (batch []float64, lc float64, extra []float64) {
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
	if m.lc != nil && alloc.LCCores > 0 {
		sharers = append(sharers, sharer{weight: m.lc.MemFrac * m.lc.L1MissRate * float64(alloc.LCCores), miss: m.lc.MissRatio})
	}
	for x, e := range alloc.ExtraLC {
		app := m.extraLCs[x]
		sharers = append(sharers, sharer{weight: app.MemFrac * app.L1MissRate * float64(e.Cores), miss: app.MissRatio})
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
	if m.lc != nil && alloc.LCCores > 0 {
		lc = sharers[si].ways
		si++
	}
	for range alloc.ExtraLC {
		extra = append(extra, sharers[si].ways)
		si++
	}
	return batch, lc, extra
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
			a.LCCores = 4 + r.Intn(8)
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
		wantB, wantLC, wantX := effectiveWaysReference(m, &a)
		want := append(append(wantB, wantLC), wantX...)
		// The first call solves, the second is served by the memo.
		for call := 0; call < 2; call++ {
			gotB, gotLC, gotX := m.effectiveWays(&a)
			got := append(append(gotB, gotLC), gotX...)
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
	batch, extra := make([]float64, 16), []float64{}
	b.Run("solve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clear(batch)
			m.lruWays(&a, batch, extra)
		}
	})
	b.Run("memo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.effectiveWays(&a)
		}
	})
}

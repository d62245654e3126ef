package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"cuttlesys/internal/config"
	"cuttlesys/internal/dds"
	"cuttlesys/internal/obs"
	"cuttlesys/internal/perf"
	"cuttlesys/internal/power"
	"cuttlesys/internal/sgd"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/workload"
)

// TestRepairCache pins the way-budget backstop: the largest non-gated
// batch cache shrinks first, ties to the lowest index, skipping gated
// jobs and half-way caches; once no batch job can shrink, each pass
// shrinks service 0 (whatever its core count) and also the first
// shrinkable extra service; the loop stops when nothing can shrink.
func TestRepairCache(t *testing.T) {
	const (
		H = config.HalfWay
		O = config.OneWay
		T = config.TwoWays
		F = config.FourWays
	)
	batch := func(caches ...config.CacheAlloc) []sim.BatchAssign {
		out := make([]sim.BatchAssign, len(caches))
		for i, c := range caches {
			out[i] = sim.BatchAssign{Core: config.Narrowest, Cache: c}
		}
		return out
	}
	rep := func(n int, c config.CacheAlloc) []config.CacheAlloc {
		out := make([]config.CacheAlloc, n)
		for i := range out {
			out[i] = c
		}
		return out
	}
	cat := func(parts ...[]config.CacheAlloc) []config.CacheAlloc {
		var out []config.CacheAlloc
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	gate := func(b []sim.BatchAssign, idx ...int) []sim.BatchAssign {
		for _, i := range idx {
			b[i].Gated = true
		}
		return b
	}
	svc := func(cores int, c config.CacheAlloc) sim.LCAssign {
		return sim.LCAssign{Cores: cores, Core: config.Widest, Cache: c}
	}
	for _, tc := range []struct {
		name            string
		svcs, wantSvcs  []sim.LCAssign
		batch, wantBtch []sim.BatchAssign
	}{
		{
			name:     "batch-only ties shrink lowest index first",
			batch:    batch(rep(9, F)...),
			wantBtch: batch(cat([]config.CacheAlloc{T, T}, rep(7, F))...),
		},
		{
			name:     "largest cache before lower index",
			svcs:     []sim.LCAssign{svc(4, F)},
			wantSvcs: []sim.LCAssign{svc(4, F)},
			batch:    batch(cat(rep(13, T), []config.CacheAlloc{F})...),
			wantBtch: batch(rep(14, T)...),
		},
		{
			name:     "gated and half-way jobs are skipped",
			svcs:     []sim.LCAssign{svc(4, F)},
			wantSvcs: []sim.LCAssign{svc(4, F)},
			batch:    gate(batch(cat([]config.CacheAlloc{F, H}, rep(8, F))...), 0),
			wantBtch: gate(batch(cat([]config.CacheAlloc{F, H}, rep(3, T), rep(5, F))...), 0),
		},
		{
			name:     "one-way jobs go half-way before any service shrinks",
			svcs:     []sim.LCAssign{svc(2, F)},
			wantSvcs: []sim.LCAssign{svc(2, F)},
			batch:    batch(rep(30, O)...),
			wantBtch: batch(cat(rep(4, H), rep(26, O))...),
		},
		{
			name:     "two services shrink together each pass",
			svcs:     []sim.LCAssign{svc(3, O), svc(3, F)},
			wantSvcs: []sim.LCAssign{svc(3, H), svc(3, O)},
			batch:    gate(batch(cat(rep(2, F), rep(60, H))...), 0, 1),
			wantBtch: gate(batch(cat(rep(2, F), rep(60, H))...), 0, 1),
		},
		{
			name:     "service 0 shrinks at zero cores, first extra only",
			svcs:     []sim.LCAssign{svc(0, F), svc(2, F), svc(2, F)},
			wantSvcs: []sim.LCAssign{svc(0, T), svc(2, T), svc(2, F)},
			batch:    batch(rep(50, H)...),
			wantBtch: batch(rep(50, H)...),
		},
		{
			name:     "stops when nothing can shrink",
			svcs:     []sim.LCAssign{svc(2, H), svc(2, H), svc(2, T)},
			wantSvcs: []sim.LCAssign{svc(2, H), svc(2, H), svc(2, H)},
			batch:    batch(rep(64, H)...),
			wantBtch: batch(rep(64, H)...),
		},
	} {
		alloc := sim.Allocation{Batch: tc.batch}
		want := sim.Allocation{Batch: tc.wantBtch}
		for k := range tc.svcs {
			alloc.SetService(k, tc.svcs[k])
			want.SetService(k, tc.wantSvcs[k])
		}
		repairCache(&alloc, len(tc.svcs))
		if !reflect.DeepEqual(alloc, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, alloc, want)
		}
	}
}

// chooseCase is one decision built from a machine's true surfaces.
type chooseCase struct {
	name     string
	services []string
	nBatch   int
	fallback bool
	searcher SearchAlgo
	failed   bool // one failed LC core and one failed batch core
}

var chooseCases = []chooseCase{
	{name: "one service", services: []string{"xapian"}, nBatch: 16},
	{name: "one service, fallback", services: []string{"xapian"}, nBatch: 16, fallback: true},
	{name: "no batch jobs", services: []string{"masstree"}},
	{name: "no batch jobs, fallback", services: []string{"masstree"}, fallback: true},
	{name: "two services, failed cores", services: []string{"xapian", "imgdnn"}, nBatch: 16, failed: true},
	{name: "two services, fallback", services: []string{"xapian", "imgdnn"}, nBatch: 16, fallback: true, failed: true},
	{name: "two services, GA", services: []string{"moses", "silo"}, nBatch: 8, searcher: SearchGA},
}

// trueSurfaces returns the case's machine and a constructor for its
// decision, built with no Runtime. The predictions are the machine's
// true surfaces: a fully observed matrix reconstructs every cell as
// exp(log v), v itself or within two ulps of it. Even
// services have latency slack and a core to yield; odd ones violate
// QoS at the widest configuration. Each call builds fresh matrices,
// predictions and slices, so two calls give equal, unshared inputs.
func trueSurfaces(t testing.TB, c chooseCase) (*sim.Machine, func() decision) {
	t.Helper()
	const seed = 5
	svcs := make([]*workload.Profile, len(c.services))
	for k, name := range c.services {
		svcs[k] = mustApp(t, name)
	}
	_, test := workload.SplitTrainTest(1, NTrainBatch)
	m := sim.New(sim.Spec{Seed: seed, LC: svcs[0], ExtraLCs: svcs[1:],
		Batch: workload.Mix(seed, test, c.nBatch), Reconfigurable: true})
	pm, wm := perf.New(true), power.New(true)
	var thr, pwr, lcPwr, lat, svc [][]float64
	for _, app := range m.Batch() {
		b, p := sim.BatchSurfaces(pm, wm, app)
		thr, pwr = append(thr, b), append(pwr, p)
	}
	init := config.NumMachineCore / 2 / len(svcs)
	seeds := make([]uint64, len(svcs))
	for k := range seeds {
		seeds[k] = seed + uint64(k)
	}
	lat, lcPwr, svc = sim.LCSurfaces(pm, wm, svcs, init, 0.5, seeds, 0.05, 1.35)
	// verbatim reconstructs nTrain training rows of ones, which choose
	// never reads, above the given rows.
	ones := make([]float64, config.NumResources)
	for j := range ones {
		ones[j] = 1
	}
	verbatim := func(nTrain int, rows ...[]float64) *sgd.Prediction {
		mat := sgd.NewMatrix(nTrain+len(rows), config.NumResources)
		for i := 0; i < nTrain; i++ {
			mat.ObserveRow(i, ones)
		}
		for i, row := range rows {
			mat.ObserveRow(nTrain+i, row)
		}
		return sgd.Reconstruct(mat, sgd.Params{MaxIter: 1})
	}
	return m, func() decision {
		in := decision{
			thr: verbatim(NTrainBatch, thr...), pwr: verbatim(NTrainBatch, append(pwr, lcPwr...)...),
			lat: verbatim(nTrainLC, lat...), svc: verbatim(nTrainLC, svc...),
			svcM:    sgd.NewMatrix(nTrainLC+len(svcs), config.NumResources),
			budgetW: 0.8 * m.MaxPowerW(), seed: seed * 7919, nBatch: c.nBatch,
			p: Params{Searcher: c.searcher}.withDefaults(), fallback: c.fallback, obs: obs.Nop,
		}
		last := sim.Allocation{Batch: make([]sim.BatchAssign, c.nBatch)}
		for i := range last.Batch {
			last.Batch[i] = sim.BatchAssign{Core: config.Narrowest, Cache: config.OneWay}
		}
		for k, app := range svcs {
			ctl := control{cores: init, initCores: init, lastRes: strongest, haveP99: true,
				lastP99Ms: 1.5 * app.QoSTargetMs, cleanSlices: 2, qosMs: app.QoSTargetMs}
			if k%2 == 0 {
				ctl.cores, ctl.lastP99Ms = init+1, 0.5*app.QoSTargetMs
			}
			in.ctl = append(in.ctl, ctl)
			in.qps = append(in.qps, 0.5*app.MaxQPS*float64(init)/16)
			in.svcM.Observe(latRow(k), ctl.lastRes.Index(), svc[k][ctl.lastRes.Index()])
			last.SetService(k, sim.LCAssign{Cores: ctl.cores, Core: ctl.lastRes.Core, Cache: ctl.lastRes.Cache})
		}
		for i := 0; i < nTrainLC; i++ {
			in.svcM.ObserveRow(i, ones)
		}
		in.lastAlloc = &last
		if c.failed {
			in.failedLC, in.failedBatch = 1, 1
		}
		return in
	}
}

// sameChoice compares two choices: every float by its bits, then the
// whole by reflect.DeepEqual.
func sameChoice(a, b choice) error {
	floats := func(c choice) []float64 {
		out := append(append([]float64{c.search.BestVal}, c.predThr...), c.predPwr...)
		for _, s := range c.svcs {
			out = append(out, s.predPwr, s.predLat)
		}
		return out
	}
	fa, fb := floats(a), floats(b)
	if len(fa) != len(fb) {
		return fmt.Errorf("%d float outputs vs %d", len(fa), len(fb))
	}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return fmt.Errorf("float output %d: %v vs %v", i, fa[i], fb[i])
		}
	}
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("\n%+v\nvs\n%+v", a, b)
	}
	return nil
}

// TestChooseIsPure runs choose twice on one input — once on a scratch
// the previous case left behind, once on a fresh one — in normal and
// fallback modes, with and without batch jobs and with two services.
// The two outputs must agree bit for bit, and the input must still
// equal an independently built copy of it.
func TestChooseIsPure(t *testing.T) {
	var shared dds.SeparableObjective
	for _, c := range chooseCases {
		_, mk := trueSurfaces(t, c)
		in, want := mk(), mk()
		if !reflect.DeepEqual(in, want) {
			t.Fatalf("%s: the input constructor is not deterministic", c.name)
		}
		first := choose(in, &shared)
		second := choose(in, &dds.SeparableObjective{})
		if err := sameChoice(first, second); err != nil {
			t.Errorf("%s: two calls disagree: %v", c.name, err)
		}
		if !reflect.DeepEqual(in, want) {
			t.Errorf("%s: choose modified its input", c.name)
		}
	}
}

// TestChooseOnTrueSurfaces drives choose with no Runtime on the
// machine's true surfaces: the allocation must be valid for the
// machine and within the LLC's ways, and outside fallback mode each
// service must run at a configuration whose latency meets its derated
// QoS target, or at its strongest point.
func TestChooseOnTrueSurfaces(t *testing.T) {
	for _, c := range chooseCases {
		m, mk := trueSurfaces(t, c)
		in := mk()
		out := choose(in, &dds.SeparableObjective{})
		if err := m.ValidateAllocation(&out.alloc); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if ways := out.alloc.TotalWays(true); ways > config.LLCWays {
			t.Errorf("%s: allocation uses %v ways", c.name, ways)
		}
		if c.fallback {
			continue
		}
		for k, s := range out.svcs {
			ctl := in.ctl[k]
			target := qosSafety * ctl.qosMs * math.Min(1, 0.4+0.15*float64(ctl.cleanSlices))
			if s.res != strongest && in.lat.At(latRow(k), s.res.Index()) > target {
				t.Errorf("%s: service %d runs %+v, predicted %v ms over its %v ms target",
					c.name, k, s.res, in.lat.At(latRow(k), s.res.Index()), target)
			}
		}
	}
}

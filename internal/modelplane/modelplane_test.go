package modelplane

import (
	"runtime"
	"testing"

	"cuttlesys/internal/fleet"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/rng"
	"cuttlesys/internal/sgd"
	"cuttlesys/internal/sim"
)

// trainedFactors trains a small model and exports its factors.
func trainedFactors(t *testing.T, seed uint64) *sgd.Factors {
	t.Helper()
	r := rng.New(seed)
	m := sgd.NewMatrix(6, 9)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			m.Observe(i, j, 1+r.Float64())
		}
	}
	_, facs := sgd.ReconstructQuad([4]*sgd.Matrix{m}, [4]sgd.Params{{
		Factors: 3, MaxIter: 60, Seed: seed,
	}}, true)
	if facs[0] == nil {
		t.Fatal("trainedFactors: cold model exports no factors")
	}
	return facs[0]
}

// aggregate returns the current fleet aggregate for key (deep copy)
// and its version, or nil and 0 when the key has never folded.
func aggregate(pl *Plane, key uint64) (map[string]*sgd.Factors, int) {
	e := pl.keys[key]
	if e == nil || e.agg == nil {
		return nil, 0
	}
	return cloneSet(e.agg), e.version
}

func factorSet(t *testing.T, seed uint64) map[string]*sgd.Factors {
	return map[string]*sgd.Factors{
		"thr": trainedFactors(t, seed),
		"lat": trainedFactors(t, seed+100),
	}
}

func TestAggregateIndependentOfPublishOrder(t *testing.T) {
	const key = 0xfeed
	sets := []map[string]*sgd.Factors{
		factorSet(t, 1), factorSet(t, 2), factorSet(t, 3), factorSet(t, 4),
	}
	orders := [][]int{
		{0, 1, 2, 3},
		{3, 2, 1, 0},
		{2, 0, 3, 1},
		{1, 3, 0, 2},
	}
	var want uint64
	for oi, order := range orders {
		pl := New(Params{}, nil)
		for _, machine := range order {
			pl.PublishFactors(key, machine, 3, sets[machine])
		}
		pl.AggregatePending(3)
		agg, version := aggregate(pl, key)
		if version != 1 {
			t.Fatalf("order %d: version %d, want 1", oi, version)
		}
		fp := setFingerprint(agg)
		if oi == 0 {
			want = fp
			continue
		}
		if fp != want {
			t.Fatalf("order %v: aggregate fingerprint %x differs from canonical %x", order, fp, want)
		}
	}
}

func TestAggregateInvariantAcrossWorkerCounts(t *testing.T) {
	// SGD sweeps in serial order at any processor count, so
	// publications — and therefore the fold — must not change bytes
	// when machines train with different parallelism.
	const key = 0xbeef
	var want uint64
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for wi, procs := range []int{1, 2, 5, 8} {
		runtime.GOMAXPROCS(procs)
		pl := New(Params{}, nil)
		for machine := 0; machine < 3; machine++ {
			pl.PublishFactors(key, machine, 7, factorSet(t, uint64(10+machine)))
		}
		pl.AggregatePending(7)
		agg, _ := aggregate(pl, key)
		fp := setFingerprint(agg)
		if wi == 0 {
			want = fp
			continue
		}
		if fp != want {
			t.Fatalf("GOMAXPROCS %d: aggregate fingerprint %x differs from GOMAXPROCS 1's %x", procs, fp, want)
		}
	}
}

func TestDecayFoldSemantics(t *testing.T) {
	mk := func(v float64) map[string]*sgd.Factors {
		return map[string]*sgd.Factors{"thr": {
			Rows: 1, Cols: 1, Rank: 1, Mu: v,
			Q: []float64{v}, P: []float64{v}, RowBias: []float64{v}, ColBias: []float64{v},
			Iters: 10, Observed: 1,
		}}
	}
	pl := New(Params{Decay: 0.25}, nil)
	pl.PublishFactors(1, 0, 0, mk(4))
	pl.AggregatePending(0)
	pl.PublishFactors(1, 0, 4, mk(8))
	pl.PublishFactors(1, 1, 4, mk(16))
	pl.AggregatePending(4)
	agg, version := aggregate(pl, 1)
	if version != 2 {
		t.Fatalf("version %d, want 2", version)
	}
	// Fold 1: aggregate = 4. Fold 2: fresh mean = 12, new = 0.25·4 + 0.75·12 = 10.
	if got := agg["thr"].Mu; got != 10 {
		t.Fatalf("decay fold Mu = %v, want 10", got)
	}
	if got := agg["thr"].Q[0]; got != 10 {
		t.Fatalf("decay fold Q = %v, want 10", got)
	}
}

func TestAggregateMeanSkipsIncompatibleGeometry(t *testing.T) {
	good := factorSet(t, 5)
	bad := map[string]*sgd.Factors{"thr": {
		Rows: 2, Cols: 2, Rank: 1, Q: []float64{9, 9}, P: []float64{9, 9},
		RowBias: []float64{9, 9}, ColBias: []float64{9, 9}, Iters: 5, Observed: 4,
	}}
	pl := New(Params{}, nil)
	pl.PublishFactors(7, 0, 0, good)
	pl.PublishFactors(7, 1, 0, bad)
	pl.AggregatePending(0)
	agg, _ := aggregate(pl, 7)
	if agg["thr"].Rows != good["thr"].Rows {
		t.Fatal("first publication's geometry should define the surface")
	}
	if agg["thr"].Fingerprint() != good["thr"].Fingerprint() {
		t.Fatal("incompatible publication must be skipped, not averaged")
	}
}

// shareStub is a minimal Scheduler + Sharer for hook tests.
type shareStub struct {
	key      uint64
	fac      map[string]*sgd.Factors
	exportOK bool

	warmed     map[string]*sgd.Factors
	fineTune   int
	confidence int
}

func (s *shareStub) Name() string { return "stub" }
func (s *shareStub) ProfilePhasesMulti(qps []float64, budgetW float64) []harness.Phase {
	return nil
}
func (s *shareStub) DecideMulti(profile []sim.PhaseResult, qps []float64, budgetW float64) (sim.Allocation, float64) {
	return sim.Allocation{}, 0
}
func (s *shareStub) EndSliceMulti(steady sim.PhaseResult, qps []float64) {}
func (s *shareStub) ShareKey() uint64                                    { return s.key }
func (s *shareStub) ExportFactors() (map[string]*sgd.Factors, error) {
	if !s.exportOK {
		return nil, sgd.ErrColdModel
	}
	return s.fac, nil
}
func (s *shareStub) WarmStart(fac map[string]*sgd.Factors, fineTuneIters, confidence int) {
	s.warmed = fac
	s.fineTune = fineTuneIters
	s.confidence = confidence
}

func TestAfterSliceCadenceAndColdSkip(t *testing.T) {
	warm := &shareStub{key: 42, fac: factorSet(t, 6), exportOK: true}
	cold := &shareStub{key: 42, exportOK: false}
	pl := New(Params{SyncPeriod: 4}, nil)
	members := []fleet.ShareMember{{ID: 0, Scheduler: warm}, {ID: 1, Scheduler: cold}}
	for slice := 0; slice < 8; slice++ {
		pl.AfterSlice(slice, float64(slice), members)
	}
	pubs, aggs, _ := pl.Totals()
	if pubs != 2 {
		t.Fatalf("publishes = %d, want 2 (slices 3 and 7, cold machine skipped)", pubs)
	}
	if aggs != 2 {
		t.Fatalf("aggregate folds = %d, want 2", aggs)
	}
	if _, version := aggregate(pl, 42); version != 2 {
		t.Fatalf("version = %d, want 2", version)
	}
}

func TestWarmStartMachine(t *testing.T) {
	donor := &shareStub{key: 9, fac: factorSet(t, 8), exportOK: true}
	pl := New(Params{SyncPeriod: 1, FineTuneIters: 30, WarmConfidence: 3}, nil)
	pl.AfterSlice(0, 0, []fleet.ShareMember{{ID: 0, Scheduler: donor}})

	joiner := &shareStub{key: 9}
	if !pl.WarmStartMachine(1, joiner) {
		t.Fatal("warm start should succeed once the key has an aggregate")
	}
	if joiner.warmed == nil || joiner.fineTune != 30 || joiner.confidence != 3 {
		t.Fatalf("warm start payload wrong: %+v", joiner)
	}
	if setFingerprint(joiner.warmed) != setFingerprint(donor.fac) {
		t.Fatal("single-donor aggregate should equal the donor's factors bit-for-bit")
	}
	// Mutating the import must not touch the store.
	joiner.warmed["thr"].Q[0] += 1
	agg, _ := aggregate(pl, 9)
	if setFingerprint(agg) != setFingerprint(donor.fac) {
		t.Fatal("warm start must hand out a deep copy")
	}

	stranger := &shareStub{key: 1234}
	if pl.WarmStartMachine(2, stranger) {
		t.Fatal("warm start must fail for a key with no aggregate")
	}
	var nilPlane *Plane
	if nilPlane.WarmStartMachine(0, joiner) {
		t.Fatal("nil plane must decline")
	}
}

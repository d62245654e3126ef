package core

import (
	"math"
	"reflect"
	"testing"

	"cuttlesys/internal/fault"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/sgd"
	"cuttlesys/internal/sim"
)

// allocRecorder wraps a Runtime and keeps every decision's allocation.
// With oracle set it also checks, after each slice's feedback, the
// reconstruction the next decision will run — sgd.ReconstructPair on
// whatever patterns the run has accumulated — bit for bit against four
// unpaired serial sgd.Reconstruct sweeps of the same matrices.
type allocRecorder struct {
	*Runtime
	t        *testing.T
	oracle   bool
	allocs   []sim.Allocation
	diverged int // checked slices whose thr/pwr patterns differed
}

func (a *allocRecorder) DecideMulti(profile []sim.PhaseResult, qps []float64, budgetW float64) (sim.Allocation, float64) {
	alloc, overhead := a.Runtime.DecideMulti(profile, qps, budgetW)
	a.allocs = append(a.allocs, alloc)
	return alloc, overhead
}

func (a *allocRecorder) EndSliceMulti(steady sim.PhaseResult, qps []float64) {
	a.Runtime.EndSliceMulti(steady, qps)
	if !a.oracle {
		return
	}
	rt := a.Runtime
	params := rt.p.SGD
	params.Seed = rt.p.Seed + uint64(rt.slice)
	thr, pwr, lat, svc := rt.reconstructAll()
	for _, c := range []struct {
		name string
		m    *sgd.Matrix
		got  *sgd.Prediction
	}{{"thr", rt.thrM, thr}, {"pwr", rt.pwrM, pwr}, {"lat", rt.latM, lat}, {"svc", rt.svcM, svc}} {
		want := sgd.Reconstruct(c.m, params)
		for i := 0; i < want.Rows; i++ {
			for j := 0; j < want.Cols; j++ {
				if g, w := c.got.At(i, j), want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
					a.t.Fatalf("slice %d: %s(%d,%d) paired %v, serial %v", rt.slice, c.name, i, j, g, w)
				}
			}
		}
	}
	for i := 0; i < rt.thrM.Rows; i++ {
		for j := 0; j < rt.thrM.Cols; j++ {
			if rt.thrM.Known(i, j) != rt.pwrM.Known(i, j) {
				a.diverged++
				return
			}
		}
	}
}

// TestPairedRunMatchesSerial runs 60 seeded slices twice — on the
// shipped deterministic configuration and on sgd.Params{Workers: 1} —
// through a telemetry-garbage window that drops samples from one
// surface of a pair but not the other, so the common prefix the kernel
// sweeps ends mid-pattern for the rest of the run. Both runs must make
// the same allocation every slice, and every reconstruction along the
// way must equal the unpaired serial sweep bit for bit.
func TestPairedRunMatchesSerial(t *testing.T) {
	slices := 60
	if raceEnabled {
		slices = 8
	}
	run := func(p sgd.Params, oracle bool) *allocRecorder {
		m := fastPathMachine(t, "xapian", 5, 16)
		rec := &allocRecorder{Runtime: New(m, Params{Seed: 5, SGD: p}), t: t, oracle: oracle}
		inj := fault.MustSchedule(5, fault.Event{Kind: fault.TelemetryGarbage, Start: 0.3, End: 0.7, Prob: 0.3})
		if _, err := harness.RunFaultedMulti(m, rec, slices,
			[]harness.LoadPattern{harness.ConstantLoad(0.7)}, harness.ConstantBudget(0.8), inj); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	paired := run(sgd.Params{Deterministic: true}, false)
	serial := run(sgd.Params{Workers: 1}, true)
	if len(paired.allocs) != slices || len(serial.allocs) != slices {
		t.Fatalf("recorded %d and %d allocations, want %d", len(paired.allocs), len(serial.allocs), slices)
	}
	for i := range paired.allocs {
		if !reflect.DeepEqual(paired.allocs[i], serial.allocs[i]) {
			t.Fatalf("slice %d allocations diverge:\ndeterministic %+v\nworkers=1     %+v", i, paired.allocs[i], serial.allocs[i])
		}
	}
	if serial.diverged == 0 {
		t.Fatal("the garbage window never made the thr/pwr patterns diverge; the test no longer covers the prefix boundary")
	}
}

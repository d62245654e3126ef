package core

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"cuttlesys/internal/fault"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/sgd"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/workload"
)

// allocRecorder wraps a Runtime and keeps every decision's allocation.
// With oracle set it also checks, after each slice's feedback, the
// reconstruction the next decision will run — sgd.ReconstructQuad on
// whatever patterns the run has accumulated — bit for bit against
// unpaired serial sgd.Reconstruct sweeps of the same matrices, and on a
// ShareFactors runtime the captured factors against the per-surface
// capture.
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
		name  string
		m     *sgd.Matrix
		got   *sgd.Prediction
		train int // the training block's rows, which no prediction renders
	}{{"thr", rt.thrM, thr, NTrainBatch}, {"pwr", rt.pwrM, pwr, NTrainBatch}, {"lat", rt.latM, lat, nTrainLC}, {"svc", rt.svcM, svc, nTrainLC}} {
		if c.m == nil {
			// A batch-only machine has no latency or service-rate surface.
			if c.got != nil {
				a.t.Fatalf("slice %d: %s reconstructed without a matrix", rt.slice, c.name)
			}
			continue
		}
		want := sgd.Reconstruct(c.m, params)
		for i := c.train; i < want.Rows; i++ {
			for j := 0; j < want.Cols; j++ {
				if g, w := c.got.At(i, j), want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
					a.t.Fatalf("slice %d: %s(%d,%d) paired %v, serial %v", rt.slice, c.name, i, j, g, w)
				}
			}
		}
		if rt.p.ShareFactors {
			_, facs := sgd.ReconstructQuad([4]*sgd.Matrix{c.m}, [4]sgd.Params{params}, true)
			wantFac := facs[0]
			if wantFac == nil {
				a.t.Fatalf("slice %d: %s: cold model exports no factors", rt.slice, c.name)
			}
			if got := rt.factors[c.name]; got == nil || got.Fingerprint() != wantFac.Fingerprint() {
				a.t.Fatalf("slice %d: %s captured factors diverge from the per-surface capture", rt.slice, c.name)
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

// TestPairedRunMatchesSerial runs 60 seeded slices twice — plain, and
// with the per-reconstruction oracle re-running every surface —
// through a telemetry-garbage window that drops samples from one
// surface of a pair but not the other, so the common prefix the
// kernels sweep ends mid-pattern for the rest of the run. Both runs
// must make the same allocation every slice, and every reconstruction
// along the way must equal the unpaired serial sweep bit for bit: on
// the four-surface machine, with factor capture on, and on a
// batch-only machine that trains two lanes.
func TestPairedRunMatchesSerial(t *testing.T) {
	slices := 60
	if raceEnabled {
		slices = 8
	}
	batchOnly := func(*testing.T) *sim.Machine {
		_, test := workload.SplitTrainTest(1, 16)
		return sim.New(sim.Spec{Seed: 5, Batch: workload.Mix(5, test, 16), Reconfigurable: true})
	}
	withService := func(t *testing.T) *sim.Machine { return fastPathMachine(t, "xapian", 5, 16) }
	for _, tc := range []struct {
		name    string
		machine func(t *testing.T) *sim.Machine
		params  Params
		load    float64
	}{
		{"service and batch", withService, Params{Seed: 5}, 0.7},
		{"share factors", withService, Params{Seed: 5, ShareFactors: true}, 0.7},
		{"batch only", batchOnly, Params{Seed: 5}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(oracle bool) *allocRecorder {
				m := tc.machine(t)
				rec := &allocRecorder{Runtime: New(m, tc.params), t: t, oracle: oracle}
				inj := fault.MustSchedule(5, fault.Event{Kind: fault.TelemetryGarbage, Start: 0.3, End: 0.7, Prob: 0.3})
				if _, err := harness.Run(m, rec, slices,
					[]harness.LoadPattern{harness.ConstantLoad(tc.load)}, harness.ConstantBudget(0.8), inj, nil); err != nil {
					t.Fatal(err)
				}
				return rec
			}
			paired := run(false)
			serial := run(true)
			if len(paired.allocs) != slices || len(serial.allocs) != slices {
				t.Fatalf("recorded %d and %d allocations, want %d", len(paired.allocs), len(serial.allocs), slices)
			}
			for i := range paired.allocs {
				if !reflect.DeepEqual(paired.allocs[i], serial.allocs[i]) {
					t.Fatalf("slice %d allocations diverge:\nplain  %+v\noracle %+v", i, paired.allocs[i], serial.allocs[i])
				}
			}
			if serial.diverged == 0 {
				t.Fatal("the garbage window never made the thr/pwr patterns diverge; the test no longer covers the prefix boundary")
			}
		})
	}
}

// TestDefaultRuntimeInvariantAcrossGOMAXPROCS is the contract every
// paper figure, the resilience report and the examples lean on: a runtime built
// with no SGD parameters at all produces the same slice records on one
// processor and on four.
func TestDefaultRuntimeInvariantAcrossGOMAXPROCS(t *testing.T) {
	run := func(procs int) []harness.SliceRecord {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		m := fastPathMachine(t, "xapian", 9, 16)
		res, err := harness.Run(m, New(m, Params{Seed: 9}), 10, []harness.LoadPattern{harness.ConstantLoad(0.7)}, harness.ConstantBudget(0.8), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Slices
	}
	if one, four := run(1), run(4); !reflect.DeepEqual(one, four) {
		t.Fatal("slice records differ between GOMAXPROCS 1 and 4")
	}
}

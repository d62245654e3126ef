package experiments

import (
	"fmt"
	"io"
	"time"

	"cuttlesys/internal/config"
	"cuttlesys/internal/dds"
	"cuttlesys/internal/perf"
	"cuttlesys/internal/power"
	"cuttlesys/internal/rng"
	"cuttlesys/internal/sgd"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/workload"
)

// TableIIResult holds the measured scheduling overheads (Table II).
// The paper reports 2×1 ms profiling samples, 4.8 ms for the three SGD
// reconstructions and 1.3 ms for the parallel DDS search on their
// server; absolute times here depend on the host, but the structure —
// a couple of milliseconds, well within a 100 ms quantum — must hold.
type TableIIResult struct {
	ProfilingSec float64 // fixed by design: 2 × 1 ms windows
	SGDSec       float64 // wall time of one four-surface reconstruction
	DDSSec       float64 // wall time of one parallel DDS search
}

// TableIIOverheads measures the reconstruction and search wall time on
// a workload of the paper's scale: 16 training + 16 running batch rows
// plus the LC rows, 108 columns, and a 16-dimensional DDS search with
// the Fig. 6 parameters.
func TableIIOverheads(seed uint64) TableIIResult {
	pm, wm := perf.New(true), power.New(true)
	train, test := workload.SplitTrainTest(1, 16)
	r := rng.New(seed)

	build := func(samplesOnly []*workload.Profile) *sgd.Matrix {
		m := sgd.NewMatrix(len(train)+len(samplesOnly), config.NumResources)
		for i, app := range train {
			b, _ := sim.BatchSurfaces(pm, wm, app)
			m.ObserveRow(i, b)
		}
		lo := config.Resource{Core: config.Narrowest, Cache: config.OneWay}.Index()
		hi := config.Resource{Core: config.Widest, Cache: config.OneWay}.Index()
		for k, app := range samplesOnly {
			b, _ := sim.BatchSurfaces(pm, wm, app)
			i := len(train) + k
			m.Observe(i, lo, b[lo])
			m.Observe(i, hi, b[hi])
		}
		return m
	}
	running := workload.Mix(seed, test, 16)
	thrM := build(running)
	pwrM := build(running)
	latM := build(running[:1])
	svcM := build(running[:1])

	params := sgd.Params{Seed: seed, Factors: 6, Reg: 0.03, MaxIter: 300, LogSpace: true, SVDInit: true}

	// The reconstruction call core.reconstructAll makes.
	ms := [4]*sgd.Matrix{thrM, pwrM, latM, svcM}
	ps := [4]sgd.Params{params, params, params, params}
	//lint:allow determinism Table II measures real scheduling wall time; the timing is the result
	start := time.Now()
	sgd.ReconstructQuad(ms, ps, false)
	//lint:allow determinism Table II measures real scheduling wall time; the timing is the result
	sgdSec := time.Since(start).Seconds()

	// One parallel DDS search with the Fig. 6 parameters.
	pred := sgd.Reconstruct(thrM, params)
	rows := make([][]float64, 16)
	for i := range rows {
		rows[i] = pred.Row(len(train) + i)
	}
	obj := func(x []int) float64 {
		s := 0.0
		for i, j := range x {
			s += rows[i][j]
		}
		return s
	}
	//lint:allow determinism Table II measures real scheduling wall time; the timing is the result
	start = time.Now()
	dds.Search(obj, dds.Params{
		Dims: 16, NumConfigs: config.NumResources,
		Seed: r.Uint64(), Workers: 8,
	})
	//lint:allow determinism Table II measures real scheduling wall time; the timing is the result
	ddsSec := time.Since(start).Seconds()

	return TableIIResult{ProfilingSec: 0.002, SGDSec: sgdSec, DDSSec: ddsSec}
}

// WriteTableII renders the overhead table next to the paper's values.
func WriteTableII(w io.Writer, r TableIIResult) {
	fmt.Fprintf(w, "%-28s %12s %12s\n", "phase", "measured", "paper")
	fmt.Fprintf(w, "%-28s %9.2f ms %12s\n", "perf/power sampling", r.ProfilingSec*1e3, "2 x 1 ms")
	fmt.Fprintf(w, "%-28s %9.2f ms %12s\n", "SGD reconstruction (4 lanes)", r.SGDSec*1e3, "4.8 ms")
	fmt.Fprintf(w, "%-28s %9.2f ms %12s\n", "DDS search", r.DDSSec*1e3, "1.3 ms")
}

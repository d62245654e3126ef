package rbf

import (
	"math"
	"testing"

	"cuttlesys/internal/config"
	"cuttlesys/internal/perf"
	"cuttlesys/internal/stats"
	"cuttlesys/internal/workload"
)

func TestDesign3MM3Properties(t *testing.T) {
	d := Design3MM3()
	if len(d) != 9 {
		t.Fatalf("3MM3 has %d points, want 9", len(d))
	}
	// Orthogonal array: each level of each factor appears 3 times.
	for _, sect := range []func(config.Core) config.Width{
		func(c config.Core) config.Width { return c.FE },
		func(c config.Core) config.Width { return c.BE },
		func(c config.Core) config.Width { return c.LS },
	} {
		counts := map[config.Width]int{}
		for _, c := range d {
			counts[sect(c)]++
		}
		for _, w := range config.Widths {
			if counts[w] != 3 {
				t.Fatalf("level %v appears %d times, want 3", w, counts[w])
			}
		}
	}
	// All points distinct.
	seen := map[config.Core]bool{}
	for _, c := range d {
		if seen[c] {
			t.Fatalf("duplicate design point %v", c)
		}
		seen[c] = true
	}
}

func TestFitInterpolatesSamples(t *testing.T) {
	pts := Design3MM3()
	vals := make([]float64, len(pts))
	for i, c := range pts {
		vals[i] = float64(c.FE) + 2*float64(c.BE) + 0.5*float64(c.LS)
	}
	s, err := Fit(pts, vals)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range pts {
		if got := s.predict(c); math.Abs(got-vals[i]) > 1e-6 {
			t.Fatalf("surrogate does not interpolate sample %v: %v vs %v", c, got, vals[i])
		}
	}
}

func TestFitRecoversLinearFunction(t *testing.T) {
	// A linear function of the widths should be reproduced exactly
	// everywhere (linear tail of the RBF).
	pts := Design3MM3()
	f := func(c config.Core) float64 { return 3 + float64(c.FE) - 0.5*float64(c.BE) + 2*float64(c.LS) }
	vals := make([]float64, len(pts))
	for i, c := range pts {
		vals[i] = f(c)
	}
	s, err := Fit(pts, vals)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range config.AllCores() {
		if got := s.predict(c); math.Abs(got-f(c)) > 1e-6 {
			t.Fatalf("linear recovery failed at %v: %v vs %v", c, got, f(c))
		}
	}
}

// With the full 9-point design, RBF predicts the real performance
// surfaces decently; with only 3 samples it goes wild — the contrast
// Fig. 9 reports (outliers to ±600% with 3 samples for RBF vs ±20%
// for SGD with 2).
func TestNineSamplesBeatThreeSamples(t *testing.T) {
	apps := workload.SPEC()
	tbl := perf.NewSurfaceTable(perf.New(true), apps)
	mapeAt := func(samplePts []config.Core) float64 {
		var errs []float64
		for a := range apps {
			truth := make(map[config.Core]float64, config.NumCoreConfigs)
			for _, c := range config.AllCores() {
				truth[c] = tbl.BIPS(a, config.Resource{Core: c, Cache: config.OneWay}.Index())
			}
			vals := make([]float64, len(samplePts))
			for i, c := range samplePts {
				vals[i] = truth[c]
			}
			s, err := Fit(samplePts, vals)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range config.AllCores() {
				errs = append(errs, math.Abs(stats.RelErrPct(s.predict(c), truth[c])))
			}
		}
		return stats.Mean(errs)
	}
	nine := mapeAt(Design3MM3())
	three := mapeAt([]config.Core{
		config.Narrowest,
		config.Widest,
		{FE: config.W4, BE: config.W4, LS: config.W4},
	})
	if nine > 15 {
		t.Errorf("9-sample RBF MAPE %v%%, expected usable accuracy", nine)
	}
	if three < 2*nine {
		t.Errorf("3-sample RBF MAPE %v%% should be far worse than 9-sample %v%%", three, nine)
	}
}

func TestFitErrors(t *testing.T) {
	pts := Design3MM3()
	if _, err := Fit(pts[:3], []float64{1, 2}); err == nil {
		t.Error("length mismatch not rejected")
	}
	if _, err := Fit(pts[:1], []float64{1}); err == nil {
		t.Error("single sample not rejected")
	}
	dup := []config.Core{config.Widest, config.Widest, config.Narrowest}
	if _, err := Fit(dup, []float64{1, 1, 2}); err == nil {
		t.Error("duplicate sample points not rejected")
	}
}

func TestPredictAllOrder(t *testing.T) {
	pts := Design3MM3()
	vals := make([]float64, len(pts))
	for i, c := range pts {
		vals[i] = float64(c.Index())
	}
	s, err := Fit(pts, vals)
	if err != nil {
		t.Fatal(err)
	}
	all := s.PredictAll()
	if len(all) != config.NumCoreConfigs {
		t.Fatalf("PredictAll returned %d values", len(all))
	}
	for i, c := range config.AllCores() {
		if math.Abs(all[i]-s.predict(c)) > 1e-12 {
			t.Fatal("PredictAll order mismatch")
		}
	}
}

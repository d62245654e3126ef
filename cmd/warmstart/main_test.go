package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"testing"
)

// benchGeometry is the `make bench-warmstart` parameter set; the
// checked-in BENCH_warmstart.json is its output.
func benchGeometry() geometry {
	return geometry{
		service: "xapian", jobs: 8, slices: 22,
		load: 0.4, cap: 0.8, seed: 7, faultAt: 0.3,
	}
}

// suiteOnce caches one full sweep for the whole test binary: the
// sweep is deterministic, so every test can read the same report.
var suiteOnce = sync.OnceValues(func() (*Report, error) {
	return suite(benchGeometry())
})

func benchReport(t *testing.T) *Report {
	t.Helper()
	rep, err := suiteOnce()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func marshalReport(t *testing.T, rep *Report) []byte {
	t.Helper()
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestWarmBeatsCold is the plane's reason to exist: in every seeded
// cell pair at the same fleet size, the warm successor must spend
// strictly fewer sampling-phase quanta than the cold successor, and
// must actually have imported fleet factors.
func TestWarmBeatsCold(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	rep := benchReport(t)
	cold := make(map[int]int) // machines -> cold successor sampling
	for _, c := range rep.Cells {
		if c.Mode == "cold" {
			if c.WarmStarted {
				t.Errorf("cold cell (machines=%d) reports a warm-started successor", c.Machines)
			}
			cold[c.Machines] = c.SuccessorSamplingQuanta
		}
	}
	warmWins := 0
	for _, c := range rep.Cells {
		if c.Mode != "warm" {
			continue
		}
		base, ok := cold[c.Machines]
		if !ok {
			t.Fatalf("warm cell machines=%d has no cold baseline", c.Machines)
		}
		if !c.WarmStarted {
			t.Errorf("warm cell machines=%d sync=%d: successor never warm-started", c.Machines, c.SyncPeriod)
		}
		if c.ShareWarmStarts < 1 || c.SharePublishes == 0 || c.ShareAggregates == 0 {
			t.Errorf("warm cell machines=%d sync=%d: plane totals publishes=%d aggregates=%d warmStarts=%d",
				c.Machines, c.SyncPeriod, c.SharePublishes, c.ShareAggregates, c.ShareWarmStarts)
		}
		if c.SuccessorSamplingQuanta < base {
			warmWins++
		}
	}
	if warmWins == 0 {
		t.Error("no warm cell beat its cold baseline's successor sampling quanta")
	}
	for _, c := range rep.Cells {
		if c.Evictions < 1 || c.Joins <= c.Machines {
			t.Errorf("cell machines=%d sync=%d never replaced the victim (joins=%d evictions=%d)",
				c.Machines, c.SyncPeriod, c.Joins, c.Evictions)
		}
	}
}

// TestSweepDeterministicAcrossGOMAXPROCS: the report must be
// byte-identical at any worker count — the plane folds publications
// serially in machine-id order, and warm-started SGD sweeps in serial
// order.
func TestSweepDeterministicAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	if raceEnabled {
		t.Skip("full sweep exceeds the test timeout under -race; the plane is race-tested in internal/modelplane and internal/fleet")
	}
	base := marshalReport(t, benchReport(t))
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		rep, err := suite(benchGeometry())
		if err != nil {
			t.Fatal(err)
		}
		if got := marshalReport(t, rep); !bytes.Equal(got, base) {
			t.Fatalf("GOMAXPROCS=%d changed the sweep report", procs)
		}
	}
}

// TestReferenceReportUnchanged regenerates the seeded reference report
// with the `make bench-warmstart` parameters and requires the bytes to
// match the checked-in BENCH_warmstart.json exactly. Any drift — a
// changed fold order, a reseeded stream, a warm-start semantic change —
// fails here before it can silently invalidate the published numbers.
func TestReferenceReportUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	if raceEnabled {
		t.Skip("full sweep exceeds the test timeout under -race; the plane is race-tested in internal/modelplane and internal/fleet")
	}
	want, err := os.ReadFile("../../BENCH_warmstart.json")
	if err != nil {
		t.Fatal(err)
	}
	got := append(marshalReport(t, benchReport(t)), '\n')
	if !bytes.Equal(got, want) {
		t.Fatal("regenerated report differs from BENCH_warmstart.json; run `make bench-warmstart` and review the diff")
	}
}

// TestGeometryValidation covers the flag guards.
func TestGeometryValidation(t *testing.T) {
	bad := []geometry{
		{service: "xapian", jobs: 8, slices: 4, load: 0.4, cap: 0.8},
		{service: "xapian", jobs: 8, slices: 22, load: 0, cap: 0.8},
		{service: "xapian", jobs: 8, slices: 22, load: 0.4, cap: 1.5},
	}
	for _, g := range bad {
		if _, err := suite(g); err == nil {
			t.Errorf("geometry %+v accepted", g)
		}
	}
}

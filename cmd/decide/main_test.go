package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestSweepDeterministic is the audit's reproducibility contract: a
// fixed setup produces a byte-identical JSON report run to run, every
// cell matches the reference search bit-for-bit, and the cells
// enumerate services × seeds in declaration order — the sweep iterates
// slices, never maps, so the JSON layout is part of the byte-stability
// contract.
func TestSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	services := []string{"xapian", "masstree"}
	seeds := []uint64{1, 2}
	marshal := func() []byte {
		rep, err := sweep(services, seeds, 5, 0.7, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a, b := marshal(), marshal()
	if !bytes.Equal(a, b) {
		t.Fatal("same setup produced different reports")
	}

	var rep Report
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != len(services)*len(seeds) {
		t.Fatalf("%d cells, want %d", len(rep.Cells), len(services)*len(seeds))
	}
	for i, cell := range rep.Cells {
		wantSvc := services[i/len(seeds)]
		wantSeed := seeds[i%len(seeds)]
		if cell.Service != wantSvc || cell.Seed != wantSeed {
			t.Errorf("cell %d is %s/%d, want %s/%d (declaration order)",
				i, cell.Service, cell.Seed, wantSvc, wantSeed)
		}
		if !cell.MatchReference {
			t.Errorf("%s/%d: fast path diverged from the reference search", cell.Service, cell.Seed)
		}
		if cell.SearchEvals <= 0 || cell.DimsScored <= 0 || cell.DimsSaved <= 0 {
			t.Errorf("%s/%d: implausible work counters %+v", cell.Service, cell.Seed, cell)
		}
	}
}

// TestReferenceReportUnchanged regenerates the seeded reference audit
// with the `make bench-decide` parameters and requires the bytes to
// match the checked-in BENCH_decide.json exactly. Any drift — a search
// engine change, an SGD schedule change, a counter change — fails here
// before it can silently invalidate the published equivalence claims.
func TestReferenceReportUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	want, err := os.ReadFile("../../BENCH_decide.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sweep([]string{"xapian", "masstree", "imgdnn"}, []uint64{1, 2, 3}, 10, 0.7, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if !bytes.Equal(got, want) {
		t.Fatal("regenerated report differs from BENCH_decide.json; run `make bench-decide` and review the diff")
	}
}

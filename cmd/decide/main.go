// Command decide is the decision-loop fast-path audit: for every
// (service, seed) cell it runs the same experiment two ways — the
// table-driven incremental search and the preserved pre-fast-path
// reference search — and reports that the fast path reproduced the
// reference decisions bit-for-bit alongside the work it did: objective
// evaluations, dimension contributions scored, and the contributions
// the incremental evaluator skipped.
//
// Every run is deterministic: a fixed -seed list produces a
// byte-identical report regardless of GOMAXPROCS, because the search
// engines are schedule-invariant and SGD sweeps in serial order.
//
// Usage:
//
//	decide [-services xapian,masstree,imgdnn] [-seeds 1,2,3]
//	       [-slices 10] [-load 0.7] [-cap 0.8] [-o report.json]
package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"

	"cuttlesys"
	"cuttlesys/internal/obs"
)

// Cell is one (service, seed) audit: the fast-path run's work
// counters and its equivalence verdict against the reference search.
type Cell struct {
	Service string `json:"service"`
	Seed    uint64 `json:"seed"`
	Slices  int    `json:"slices"`
	// SearchEvals counts objective evaluations across all slices;
	// DimsScored counts the per-dimension contributions the evaluator
	// actually accumulated, and DimsSaved the contributions the
	// incremental path skipped relative to full evaluation.
	SearchEvals int `json:"searchEvals"`
	DimsScored  int `json:"dimsScored"`
	DimsSaved   int `json:"dimsSaved"`
	// MatchReference reports that the fast path's slice records equal
	// the reference search's bit-for-bit.
	MatchReference bool `json:"matchReference"`
}

// Report is the full fast-path audit.
type Report struct {
	Services []string `json:"services"`
	Seeds    []uint64 `json:"seeds"`
	Slices   int      `json:"slices"`
	Load     float64  `json:"load"`
	Cap      float64  `json:"cap"`
	Cells    []Cell   `json:"cells"`
}

func main() {
	services := flag.String("services", "xapian,masstree,imgdnn", "comma-separated latency-critical services")
	seeds := flag.String("seeds", "1,2,3", "comma-separated seeds")
	slices := flag.Int("slices", 10, "timeslices per run")
	load := flag.Float64("load", 0.7, "LC offered load fraction")
	capFrac := flag.Float64("cap", 0.8, "power cap fraction of reference max power")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	seedList, err := parseSeeds(*seeds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "decide: %v\n", err)
		os.Exit(1)
	}
	rep, err := sweep(strings.Split(*services, ","), seedList, *slices, *load, *capFrac)
	if err != nil {
		fmt.Fprintf(os.Stderr, "decide: %v\n", err)
		os.Exit(1)
	}
	if err := cuttlesys.WriteReport(*out, rep); err != nil {
		fmt.Fprintf(os.Stderr, "decide: %v\n", err)
		os.Exit(1)
	}
}

func parseSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %w", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func sweep(services []string, seeds []uint64, slices int, load, capFrac float64) (*Report, error) {
	rep := &Report{Services: services, Seeds: seeds, Slices: slices, Load: load, Cap: capFrac}
	for _, svc := range services {
		for _, seed := range seeds {
			cell, err := runCell(svc, seed, slices, load, capFrac)
			if err != nil {
				return nil, fmt.Errorf("%s/%d: %w", svc, seed, err)
			}
			rep.Cells = append(rep.Cells, cell)
		}
	}
	return rep, nil
}

// runCell audits one (service, seed) experiment. The fast leg is
// traced so the recorder's registry yields the search work counters;
// the reference leg reruns the identical experiment with
// ReferenceSearch on.
func runCell(service string, seed uint64, slices int, load, capFrac float64) (Cell, error) {
	run := func(p cuttlesys.RuntimeParams, rec *cuttlesys.TraceRecorder) (*cuttlesys.Result, error) {
		lc, err := cuttlesys.AppByName(service)
		if err != nil {
			return nil, err
		}
		_, pool := cuttlesys.SplitTrainTest(1, 16)
		m := cuttlesys.NewMachine(cuttlesys.MachineSpec{
			Seed: seed, LC: lc,
			Batch:          cuttlesys.Mix(seed, pool, 16),
			Reconfigurable: true,
		})
		rt := cuttlesys.NewRuntime(m, p)
		var c cuttlesys.Collector
		if rec != nil {
			c = rec
		}
		return cuttlesys.RunTraced(m, rt, slices,
			[]cuttlesys.LoadPattern{cuttlesys.ConstantLoad(load)},
			cuttlesys.ConstantBudget(capFrac), nil, c)
	}

	rec := cuttlesys.NewTraceRecorder()
	fast, err := run(cuttlesys.RuntimeParams{Seed: seed}, rec)
	if err != nil {
		return Cell{}, err
	}
	ref, err := run(cuttlesys.RuntimeParams{Seed: seed, ReferenceSearch: true}, nil)
	if err != nil {
		return Cell{}, err
	}

	cell := Cell{
		Service:        service,
		Seed:           seed,
		Slices:         len(fast.Slices),
		MatchReference: reflect.DeepEqual(fast.Slices, ref.Slices),
	}
	for _, s := range rec.Registry().Snapshot() {
		switch s.Name {
		case obs.MetricSearchEvals:
			cell.SearchEvals += int(s.Value)
		case obs.MetricSearchDims:
			cell.DimsScored += int(s.Value)
		case obs.MetricSearchDimsSaved:
			cell.DimsSaved += int(s.Value)
		}
	}
	return cell, nil
}

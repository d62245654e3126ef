package main

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"cuttlesys/experiments"
)

// paperRow reproduces one table or figure of the paper's evaluation,
// printing its rows or series. Each row takes only the flags its
// experiment reads; the defaults run at smoke scale (raise -mixes or
// -slices for paper scale). EXPERIMENTS.md records paper vs measured.
type paperRow struct {
	name, title string
	flags       []string
	defaults    params
	run         func(w io.Writer, p params) error
}

var paperRows = []paperRow{
	{"fig1", "", []string{"loads", "sim", "seed"},
		params{Loads: "0.2,0.8", Sim: 0.5, Seed: 1}, fig1},
	{"tableii", "Table II — characterisation and optimisation overheads:", []string{"seed", "reps"},
		params{Seed: 1, Reps: 5}, tableII},
	{"trainsweep", "§VIII-A2 — training-set-size sensitivity:", nil,
		params{}, trainSweep},
	{"fig5a", "Fig. 5a — reconstruction accuracy, applications in isolation:", []string{"seed"},
		params{Seed: 1}, func(w io.Writer, p params) error {
			experiments.WriteAccuracy(w, experiments.Fig5aIsolation(p.Seed))
			return nil
		}},
	{"fig5b", "Fig. 5b — reconstruction accuracy at runtime (colocated):", []string{"seed", "mixes", "slices"},
		params{Seed: 1, Mixes: 2, Slices: 10}, func(w io.Writer, p params) error {
			res, err := experiments.Fig5bColocation(setup(p))
			if err == nil {
				experiments.WriteAccuracy(w, res)
			}
			return err
		}},
	{"fig5c", "Fig. 5c — relative instructions vs no-gating across power caps:", capSweepFlags,
		params{Mixes: 2, Slices: 10, Load: 0.8, Seed: 1}, func(w io.Writer, p params) error {
			rows, err := experiments.Fig5cPowerCapSweep(setup(p))
			if err == nil {
				experiments.WriteCapSweep(w, rows, experiments.ComparisonPolicies)
			}
			return err
		}},
	{"fig7", "Fig. 7 — instructions per timeslice (billions), 70% cap:", []string{"seed"},
		params{Seed: 2}, func(w io.Writer, p params) error {
			rows, err := experiments.Fig7InstrPerSlice(p.Seed)
			if err == nil {
				experiments.WriteFig7(w, rows)
			}
			return err
		}},
	{"fig8a", "Fig. 8a — diurnal load at a 70% power cap:", []string{"slices", "seed"},
		params{Slices: 20, Seed: 3}, dynamics(experiments.ScenarioVaryingLoad)},
	{"fig8b", "Fig. 8b — power budget 90% -> 60% -> 90% at 80% load:", []string{"slices", "seed"},
		params{Slices: 20, Seed: 3}, dynamics(experiments.ScenarioVaryingBudget)},
	{"fig8c", "Fig. 8c — core relocation under a load spike:", []string{"slices", "seed"},
		params{Slices: 20, Seed: 3}, dynamics(experiments.ScenarioRelocation)},
	{"flicker", "§VIII-E — Flicker vs CuttleSys tail-latency behaviour:", []string{"seed", "mixes", "load"},
		params{Seed: 1, Mixes: 1, Load: 0.9}, func(w io.Writer, p params) error {
			rows, err := experiments.FlickerQoSComparison(setup(p))
			if err == nil {
				experiments.WriteFlickerQoS(w, rows)
			}
			return err
		}},
	{"fig9", "Fig. 9 — RBF (3 samples) vs SGD (2 samples) prediction error:", []string{"seed"},
		params{Seed: 1}, func(w io.Writer, p params) error {
			experiments.WriteAccuracy(w, experiments.Fig9RBFvsSGD(p.Seed))
			return nil
		}},
	{"fig10a", "Fig. 10a — design-space exploration, DDS vs GA:", []string{"cap", "seed", "points"},
		params{Cap: 0.7, Seed: 6}, fig10a},
	{"fig10b", "Fig. 10b — gmean batch throughput, SGD+DDS vs SGD+GA:", capSweepFlags,
		params{Mixes: 2, Slices: 10, Load: 0.8, Seed: 1}, func(w io.Writer, p params) error {
			rows, err := experiments.Fig10bDDSvsGA(setup(p))
			if err == nil {
				experiments.WriteSearcherRows(w, rows)
			}
			return err
		}},
	{"ablation", "Runtime guard ablation (0.9 load, 70% cap):", []string{"seed", "mixes"},
		params{Seed: 1, Mixes: 1}, func(w io.Writer, p params) error {
			s := setup(p)
			s.LoadFrac, s.Services = 0.9, []string{"xapian", "silo"}
			rows, err := experiments.Ablation(s)
			if err == nil {
				experiments.WriteAblation(w, rows)
			}
			return err
		}},
	{"proportionality", "Energy proportionality — server power vs offered load (xapian, LC only):", []string{"seed"},
		params{Seed: 1}, func(w io.Writer, p params) error {
			rows, err := experiments.EnergyProportionality("xapian", p.Seed, nil)
			if err == nil {
				experiments.WriteProportionality(w, rows)
			}
			return err
		}},
}

// capSweepFlags are the knobs of the power-cap sweeps (Fig. 5c, 10b).
var capSweepFlags = []string{"mixes", "slices", "load", "seed", "services"}

// runPaper is `cuttlesys paper <row> [flags]`.
func runPaper(args []string, stdout io.Writer) error {
	row, err := pick("paper row", paperRows, func(r paperRow) string { return r.name }, args)
	if err != nil {
		return err
	}
	p := row.defaults
	fs := flag.NewFlagSet("cuttlesys paper "+row.name, flag.ContinueOnError)
	p.bind(fs, row.flags...)
	if err := parseNoArgs(fs, args[1:]); err != nil {
		return fmt.Errorf("%s: %w", row.name, err)
	}
	if row.title != "" {
		fmt.Fprintln(stdout, row.title)
	}
	if err := row.run(stdout, p); err != nil {
		return fmt.Errorf("%s: %w", row.name, err)
	}
	return nil
}

// setup maps a row's flags onto a comparison-experiment setup; zero
// fields select the experiment's defaults.
func setup(p params) experiments.Setup {
	s := experiments.Setup{
		Seed: p.Seed, MixesPerService: p.Mixes, Slices: p.Slices, LoadFrac: p.Load,
	}
	if p.Services != "" {
		s.Services = strings.Split(p.Services, ",")
	}
	return s
}

func dynamics(sc experiments.DynamicsScenario) func(io.Writer, params) error {
	return func(w io.Writer, p params) error {
		recs, err := experiments.Dynamics(sc, p.Seed, p.Slices)
		if err == nil {
			experiments.WriteDynamics(w, recs)
		}
		return err
	}
}

// fig1 is the §III characterisation: tail latency and 16-core power of
// the five services across all 27 core configurations at each load.
func fig1(w io.Writer, p params) error {
	var loads []float64
	for _, s := range strings.Split(p.Loads, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || !(v > 0 && v <= 1) {
			return fmt.Errorf("-loads %s: each load must be a fraction in (0, 1]", s)
		}
		loads = append(loads, v)
	}
	rows := experiments.Fig1(loads, p.Seed, p.Sim)
	high := loads[len(loads)-1]
	experiments.WriteFig1(w, rows, high)

	fmt.Fprintln(w, "\ncheapest QoS-meeting configuration per service (cf. Fig. 1):")
	best := experiments.BestTradeoff(rows, high)
	svcs := make([]string, 0, len(best))
	for svc := range best {
		svcs = append(svcs, svc)
	}
	sort.Strings(svcs)
	for _, svc := range svcs {
		fmt.Fprintf(w, "  %-10s %s\n", svc, best[svc])
	}
	return nil
}

// tableII reports the best of -reps timings of one decision quantum's
// scheduling work.
func tableII(w io.Writer, p params) error {
	best := experiments.TableIIOverheads(p.Seed)
	for i := 1; i < p.Reps; i++ {
		r := experiments.TableIIOverheads(p.Seed + uint64(i))
		best.SGDSec = min(best.SGDSec, r.SGDSec)
		best.DDSSec = min(best.DDSSec, r.DDSSec)
	}
	experiments.WriteTableII(w, best)
	return nil
}

func trainSweep(w io.Writer, p params) error {
	fmt.Fprintf(w, "%-8s %s\n", "apps", "mean abs error (%)")
	for _, r := range experiments.TrainingSetSweep(nil) {
		fmt.Fprintf(w, "%-8d %.1f\n", r.NTrain, r.MeanAbs)
	}
	return nil
}

func fig10a(w io.Writer, p params) error {
	points, budget := experiments.Fig10aExploration(p.Seed, p.Cap)
	experiments.WriteFig10a(w, points, budget)
	if p.Points {
		fmt.Fprintln(w, "\nsearcher,powerW,invThroughput")
		for _, pt := range points {
			who := "ga"
			if pt.FromDDS {
				who = "dds"
			}
			fmt.Fprintf(w, "%s,%.3f,%.5f\n", who, pt.PowerW, pt.InvThr)
		}
	}
	return nil
}

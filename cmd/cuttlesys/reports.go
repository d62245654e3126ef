package main

import (
	"flag"
	"fmt"
	"io"

	"cuttlesys"
	"cuttlesys/specs"
)

// report is one row of the report registry: a seeded JSON report, the
// checked-in file it reproduces, the flags it takes besides -o, and
// its reference parameters. Run with the defaults, build reproduces
// the file byte for byte; TestReferenceReportsUnchanged holds it to
// that at GOMAXPROCS 1 and 8.
type report struct {
	name     string
	file     string
	flags    []string
	defaults params
	build    func(p params) (any, error)
}

// geometryFlags are the fleet geometry flags most reports and the spec
// commands take.
var geometryFlags = []string{"service", "machines", "slices", "load", "cap", "seed"}

var reports = []report{
	{"resilience", "BENCH_resilience.json",
		[]string{"service", "mix", "slices", "load", "cap", "seed"},
		params{Service: "xapian", Mix: 3, Slices: 30, Load: 0.8, Cap: 0.7, Seed: 1},
		resilienceReport},
	{"fleet", "BENCH_fleet.json",
		geometryFlags,
		params{Service: "xapian", Machines: 4, Slices: 12, Load: 0.7, Cap: 0.65, Seed: 1},
		fleetReport},
	{"obs", "BENCH_obs.json",
		append([]string{"trace", "chrome", "prom"}, geometryFlags...),
		params{Service: "xapian", Machines: 3, Slices: 10, Load: 0.7, Cap: 0.65, Seed: 1},
		obsReport},
	{"ops", "BENCH_ops.json",
		geometryFlags,
		params{Service: "xapian", Machines: 4, Slices: 30, Load: 0.4, Cap: 0.8, Seed: 7},
		opsReport},
	// The suite's geometry flags default to zero: each spec keeps its
	// own geometry unless a flag is given.
	{"scenario", "BENCH_scenario.json",
		geometryFlags,
		params{Seed: 1},
		scenarioSuite},
	{"warmstart", "BENCH_warmstart.json",
		[]string{"service", "slices", "load", "cap", "seed"},
		params{Service: "xapian", Slices: 22, Load: 0.4, Cap: 0.8, Seed: 7},
		warmstartReport},
}

// runReport is `cuttlesys report <name> [flags]`.
func runReport(args []string, stdout io.Writer) error {
	r, err := pick("report", reports, func(r report) string { return r.name }, args)
	if err != nil {
		return err
	}
	if err := r.run(args[1:], stdout); err != nil {
		return fmt.Errorf("%s: %w", r.name, err)
	}
	return nil
}

func (r report) run(args []string, stdout io.Writer) error {
	p := r.defaults
	fs := flag.NewFlagSet("cuttlesys report "+r.name, flag.ContinueOnError)
	p.bind(fs, append([]string{"o"}, r.flags...)...)
	if err := parseNoArgs(fs, args); err != nil {
		return err
	}
	rep, err := r.build(p)
	if err != nil {
		return err
	}
	return writeReport(p.Out, stdout, rep)
}

// obsReport runs the obs-chaos library spec (QoS-aware router,
// headroom arbiter, a mid-run fail-stop on machine 1) with a trace
// recorder attached and returns its trace summary. The trace JSONL,
// Chrome trace_event JSON and Prometheus snapshot go to -trace, -chrome
// and -prom when given; all of them are keyed to simulated time and
// byte-deterministic (DESIGN.md §10).
func obsReport(p params) (any, error) {
	sp, err := librarySpec("obs-chaos")
	if err != nil {
		return nil, err
	}
	rec := cuttlesys.NewTraceRecorder()
	opt := options(p, specs.FS)
	opt.Collector = rec
	comp, err := cuttlesys.CompileScenario(sp, opt)
	if err != nil {
		return nil, err
	}
	if _, err := comp.Run(); err != nil {
		return nil, err
	}
	for _, a := range []struct {
		path string
		emit func(io.Writer) error
	}{{p.Trace, rec.WriteJSONL}, {p.Chrome, rec.WriteChromeTrace}, {p.Prom, rec.WritePrometheus}} {
		if a.path == "" {
			continue
		}
		if err := writeTo(a.path, nil, a.emit); err != nil {
			return nil, err
		}
	}
	return cuttlesys.SummarizeTrace(rec.Events(), 0), nil
}

// FleetQuality is a fleet run's headline numbers, shared by the fleet
// sweep's cells and the scenario reports.
type FleetQuality struct {
	QoSMetFrac    float64 `json:"qosMetFrac"`
	QoSViolations int     `json:"qosViolations"`
	WorstP99Ratio float64 `json:"worstP99Ratio"`
	TotalInstrB   float64 `json:"totalInstrB"`
	MeanPowerW    float64 `json:"meanPowerW"`
}

func fleetQuality(res *cuttlesys.FleetResult) FleetQuality {
	return FleetQuality{
		QoSMetFrac:    round4(res.QoSMetFraction()),
		QoSViolations: res.QoSViolations(),
		WorstP99Ratio: round4(res.WorstP99Ratio()),
		TotalInstrB:   round4(res.TotalInstrB()),
		MeanPowerW:    round4(res.MeanPowerW()),
	}
}

// ControlReport is a managed run's control-plane totals, shared by the
// ops drills and the managed scenario reports.
type ControlReport struct {
	// ShedQPS is offered load the mask could not place on any serving
	// machine, summed over the run.
	ShedQPS float64 `json:"shedQPS"`
	// MinServing / PeakMachines bound the serving set over the run.
	MinServing   int `json:"minServing"`
	PeakMachines int `json:"peakMachines"`
	Joins        int `json:"joins"`
	Evictions    int `json:"evictions"`
}

func summarizeControl(res *cuttlesys.ControlPlaneResult) ControlReport {
	cr := ControlReport{MinServing: -1}
	shed := 0.0
	for _, rec := range res.Slices {
		shed += rec.UnroutedQPS
		if cr.MinServing < 0 || rec.Serving < cr.MinServing {
			cr.MinServing = rec.Serving
		}
		if len(rec.Members) > cr.PeakMachines {
			cr.PeakMachines = len(rec.Members)
		}
	}
	cr.ShedQPS = round4(shed)
	for _, ev := range res.Membership {
		if ev.Event == "join" {
			cr.Joins++
		} else {
			cr.Evictions++
		}
	}
	return cr
}

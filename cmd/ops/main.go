// Command ops is the control-plane drill harness: it runs a managed
// CuttleSys fleet (internal/ctrlplane behind the facade) through three
// operational incidents and emits the flight-recorder evidence an
// operator would review afterwards — the membership log, every health
// state transition, the serving floor and the load the router had to
// shed. The drills are the declarative specs of the same names in
// specs/, compiled by the scenario engine; the flags override each
// spec's geometry.
//
// The drills:
//
//   - failover: one machine fail-stops most of its cores mid-run and
//     never recovers. The health checker quarantines it within the
//     debounce window, gives up after DrainAfter bad slices, drains and
//     evicts it, and the replacement path admits a successor that works
//     through probation to healthy.
//   - brownout: the cluster budget is squeezed for the middle third of
//     the run while one machine carries a composed fault — a standing
//     fail-stop/fail-slow schedule layered with a salted drill-scoped
//     budget-drop incident. The machine flaps through quarantine and
//     probation and is re-admitted once the fault window closes.
//   - surge: offered load steps up to near saturation and back. The
//     autoscaler grows the fleet under its power-headroom gate, then
//     drains the extra machines once the surge passes — scale-down
//     evictions provision no replacement.
//
// Every run is deterministic: control decisions run serially between
// slices from last-slice telemetry, machine stepping merges in index
// order, and SGD sweeps in serial order, so a fixed -seed produces a
// byte-identical report at any GOMAXPROCS.
//
// Usage:
//
//	ops [-service xapian] [-machines 4] [-slices 30] [-load 0.4]
//	    [-cap 0.8] [-seed 7] [-o report.json]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"cuttlesys"
	"cuttlesys/specs"
)

// opsDrills names the spec-library drills the suite runs, in report
// order.
func opsDrills() []string {
	return []string{"failover", "brownout", "surge"}
}

// MembershipEntry is one membership-log record (join or evict).
type MembershipEntry struct {
	Slice   int     `json:"slice"`
	T       float64 `json:"t"`
	Machine int     `json:"machine"`
	Event   string  `json:"event"`
	Reason  string  `json:"reason"`
}

// TransitionEntry is one health state machine edge.
type TransitionEntry struct {
	Slice   int     `json:"slice"`
	T       float64 `json:"t"`
	Machine int     `json:"machine"`
	From    string  `json:"from"`
	To      string  `json:"to"`
	Reason  string  `json:"reason"`
}

// DrillReport is one drill's outcome: fleet-level quality numbers plus
// the control plane's flight recorder.
type DrillReport struct {
	Drill         string  `json:"drill"`
	QoSMetFrac    float64 `json:"qosMetFrac"`
	QoSViolations int     `json:"qosViolations"`
	TotalInstrB   float64 `json:"totalInstrB"`
	MeanPowerW    float64 `json:"meanPowerW"`
	// ShedQPS is offered load the mask could not place on any serving
	// machine, summed over the run.
	ShedQPS float64 `json:"shedQPS"`
	// MinServing / PeakMachines bound the serving set over the run.
	MinServing   int               `json:"minServing"`
	PeakMachines int               `json:"peakMachines"`
	Joins        int               `json:"joins"`
	Evictions    int               `json:"evictions"`
	Membership   []MembershipEntry `json:"membership"`
	Transitions  []TransitionEntry `json:"transitions"`
	// Final is each machine slot's state at the end of the run, by id.
	Final []string `json:"final"`
}

// Report is the full drill suite.
type Report struct {
	Service  string        `json:"service"`
	Machines int           `json:"machines"`
	Slices   int           `json:"slices"`
	Load     float64       `json:"load"`
	Cap      float64       `json:"cap"`
	Seed     uint64        `json:"seed"`
	Drills   []DrillReport `json:"drills"`
}

func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

// validateGeometry rejects flag values the drills would only trip
// over mid-run, with errors naming the flag.
func validateGeometry(machines, slices int, load, capFrac float64) error {
	if machines < 2 {
		return fmt.Errorf("drills need at least two machines, got -machines %d", machines)
	}
	if slices < 1 {
		return fmt.Errorf("need at least one timeslice, got -slices %d", slices)
	}
	if load <= 0 || load > 1 {
		return fmt.Errorf("-load %v out of (0, 1]", load)
	}
	if capFrac <= 0 || capFrac > 1 {
		return fmt.Errorf("-cap %v out of (0, 1]", capFrac)
	}
	return nil
}

func main() {
	service := flag.String("service", "xapian", "latency-critical service (TailBench name)")
	machines := flag.Int("machines", 4, "initial machines in the fleet")
	slices := flag.Int("slices", 30, "timeslices per drill")
	load := flag.Float64("load", 0.4, "baseline offered load fraction of aggregate capacity")
	capFrac := flag.Float64("cap", 0.8, "cluster power cap fraction of aggregate reference power")
	seed := flag.Uint64("seed", 7, "fleet seed (machine and provisioning seeds are derived)")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	rep, err := suite(*service, *machines, *slices, *load, *capFrac, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ops: %v\n", err)
		os.Exit(1)
	}
	if err := cuttlesys.WriteReport(*out, rep); err != nil {
		fmt.Fprintf(os.Stderr, "ops: %v\n", err)
		os.Exit(1)
	}
}

func suite(service string, machines, slices int, load, capFrac float64, seed uint64) (*Report, error) {
	if err := validateGeometry(machines, slices, load, capFrac); err != nil {
		return nil, err
	}
	rep := &Report{
		Service: service, Machines: machines, Slices: slices,
		Load: load, Cap: capFrac, Seed: seed,
	}
	for _, name := range opsDrills() {
		dr, err := runDrill(name, service, machines, slices, load, capFrac, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rep.Drills = append(rep.Drills, dr)
	}
	return rep, nil
}

// runDrill compiles one drill spec against the flags and runs its
// managed fleet. Every machine — initial or provisioned later — runs
// the full CuttleSys runtime with deterministic-parallel SGD.
func runDrill(name, service string, machines, slices int, load, capFrac float64, seed uint64) (DrillReport, error) {
	src, err := specs.Source(name)
	if err != nil {
		return DrillReport{}, err
	}
	sp, err := cuttlesys.ParseScenario(src)
	if err != nil {
		return DrillReport{}, err
	}
	comp, err := cuttlesys.CompileScenario(sp, cuttlesys.ScenarioOptions{
		Machines: machines, Slices: slices, Service: service,
		Load: load, Cap: capFrac, Seed: seed, FS: specs.FS,
	})
	if err != nil {
		return DrillReport{}, err
	}
	cp, err := comp.BuildControlPlane(nil, nil)
	if err != nil {
		return DrillReport{}, err
	}
	defer cp.Close()
	res, err := cp.Run(slices, comp.LoadPat, comp.BudgetPat)
	if err != nil {
		return DrillReport{}, err
	}
	return summarize(name, res), nil
}

func summarize(name string, res *cuttlesys.ControlPlaneResult) DrillReport {
	dr := DrillReport{
		Drill:         name,
		QoSMetFrac:    round4(res.Fleet.QoSMetFraction()),
		QoSViolations: res.Fleet.QoSViolations(),
		TotalInstrB:   round4(res.Fleet.TotalInstrB()),
		MeanPowerW:    round4(res.Fleet.MeanPowerW()),
		MinServing:    -1,
		Final:         res.Final,
	}
	shed := 0.0
	for _, rec := range res.Slices {
		shed += rec.UnroutedQPS
		if dr.MinServing < 0 || rec.Serving < dr.MinServing {
			dr.MinServing = rec.Serving
		}
		if len(rec.Members) > dr.PeakMachines {
			dr.PeakMachines = len(rec.Members)
		}
	}
	dr.ShedQPS = round4(shed)
	for _, ev := range res.Membership {
		if ev.Event == "join" {
			dr.Joins++
		} else {
			dr.Evictions++
		}
		dr.Membership = append(dr.Membership, MembershipEntry{
			Slice: ev.Slice, T: round4(ev.T), Machine: ev.Machine,
			Event: ev.Event, Reason: ev.Reason,
		})
	}
	for _, tr := range res.Transitions {
		dr.Transitions = append(dr.Transitions, TransitionEntry{
			Slice: tr.Slice, T: round4(tr.T), Machine: tr.Machine,
			From: tr.From, To: tr.To, Reason: tr.Reason,
		})
	}
	return dr
}

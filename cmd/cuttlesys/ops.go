package main

import (
	"fmt"

	"cuttlesys"
)

// drillNames names the spec-library drills of the ops report, in
// report order:
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
func drillNames() []string {
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
	ControlReport
	Membership  []MembershipEntry `json:"membership"`
	Transitions []TransitionEntry `json:"transitions"`
	// Final is each machine slot's state at the end of the run, by id.
	Final []string `json:"final"`
}

// OpsReport is the control-plane drill suite (BENCH_ops.json): a
// managed fleet run through three incidents, reporting the evidence an
// operator would review afterwards. Control decisions run serially
// between slices from last-slice telemetry, so the report does not
// depend on GOMAXPROCS.
type OpsReport struct {
	Service  string        `json:"service"`
	Machines int           `json:"machines"`
	Slices   int           `json:"slices"`
	Load     float64       `json:"load"`
	Cap      float64       `json:"cap"`
	Seed     uint64        `json:"seed"`
	Drills   []DrillReport `json:"drills"`
}

func opsReport(p params) (any, error) {
	if p.Machines < 2 {
		return nil, fmt.Errorf("drills need at least two machines, got -machines %d", p.Machines)
	}
	rep := &OpsReport{
		Service: p.Service, Machines: p.Machines, Slices: p.Slices,
		Load: p.Load, Cap: p.Cap, Seed: p.Seed,
	}
	for _, name := range drillNames() {
		dr, err := runDrill(name, p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rep.Drills = append(rep.Drills, dr)
	}
	return rep, nil
}

// runDrill compiles one drill spec against p and runs its managed
// fleet. Every machine, initial or provisioned later, runs the full
// CuttleSys runtime.
func runDrill(name string, p params) (DrillReport, error) {
	comp, err := compileLibrary(name, p)
	if err != nil {
		return DrillReport{}, err
	}
	res, err := comp.Run()
	if err != nil {
		return DrillReport{}, err
	}
	return summarizeDrill(name, res.Control), nil
}

func summarizeDrill(name string, res *cuttlesys.ControlPlaneResult) DrillReport {
	dr := DrillReport{
		Drill:         name,
		QoSMetFrac:    round4(res.Fleet.QoSMetFraction()),
		QoSViolations: res.Fleet.QoSViolations(),
		TotalInstrB:   round4(res.Fleet.TotalInstrB()),
		MeanPowerW:    round4(res.Fleet.MeanPowerW()),
		ControlReport: summarizeControl(res),
		Final:         res.Final,
	}
	for _, ev := range res.Membership {
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

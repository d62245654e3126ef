package experiments

import (
	"fmt"
	"io"

	"cuttlesys/internal/harness"
)

// Fig7Row is one timeslice of the Fig. 7 comparison: instructions
// executed per 0.1 s on all cores for one policy at a 70 % power cap.
type Fig7Row struct {
	Policy string
	T      float64
	InstrB float64
}

// Fig7InstrPerSlice reproduces Fig. 7: per-timeslice instructions over
// 1 s for core-level gating, the oracle-like asymmetric multicore and
// CuttleSys at a 70 % cap on one Xapian+SPEC mix. Gating shows
// whole-core losses, the asymmetric design big/little steps, CuttleSys
// fine-grained adjustment.
func Fig7InstrPerSlice(seed uint64) ([]Fig7Row, error) {
	s := Setup{Seed: seed}.withDefaults()
	var rows []Fig7Row
	for _, policy := range []string{PolicyCoreGating, PolicyAsymmOracle, PolicyCuttleSys} {
		res, _, err := s.cell(policy, "xapian", seed+7, 0.7).run()
		if err != nil {
			return nil, err
		}
		for _, rec := range res.Slices {
			rows = append(rows, Fig7Row{Policy: policy, T: rec.T, InstrB: rec.TotalInstrB})
		}
	}
	return rows, nil
}

// WriteFig7 renders the per-slice comparison.
func WriteFig7(w io.Writer, rows []Fig7Row) {
	byPolicy := map[string][]Fig7Row{}
	for _, r := range rows {
		byPolicy[r.Policy] = append(byPolicy[r.Policy], r)
	}
	for _, p := range sortedKeys(byPolicy) {
		fmt.Fprintf(w, "%-14s", p)
		for _, r := range byPolicy[p] {
			fmt.Fprintf(w, " %6.2f", r.InstrB)
		}
		fmt.Fprintln(w)
	}
}

// DynamicsScenario selects one of the §VIII-D experiments.
type DynamicsScenario string

// The three §VIII-D scenarios.
const (
	ScenarioVaryingLoad   DynamicsScenario = "load"       // Fig. 8a: diurnal input load at a 70 % cap
	ScenarioVaryingBudget DynamicsScenario = "power"      // Fig. 8b: 90→60→90 % budget at 80 % load
	ScenarioRelocation    DynamicsScenario = "relocation" // Fig. 8c: load spike forcing core reclamation
)

// Dynamics runs one §VIII-D scenario: CuttleSys managing Xapian plus a
// 16-job SPEC mix for `slices` timeslices, returning the per-slice
// records (load, tail latency vs QoS, batch throughput, power vs
// budget, LC configuration and core count).
func Dynamics(scenario DynamicsScenario, seed uint64, slices int) ([]harness.SliceRecord, error) {
	if slices == 0 {
		slices = 20
	}
	var load harness.LoadPattern
	var budget harness.BudgetPattern
	horizon := float64(slices) * harness.SliceDur
	switch scenario {
	case ScenarioVaryingLoad:
		load = harness.DiurnalLoad(0.2, 1.0, horizon)
		budget = harness.ConstantBudget(0.7)
	case ScenarioVaryingBudget:
		load = harness.ConstantLoad(0.8)
		budget = harness.StepBudget(0.9, 0.6, 0.3*horizon, 0.7*horizon)
	case ScenarioRelocation:
		load = harness.StepLoad(0.2, 1.45, 0.25*horizon, 0.65*horizon)
		budget = harness.ConstantBudget(0.9)
	default:
		return nil, fmt.Errorf("experiments: unknown scenario %q", scenario)
	}

	res, _, err := cell{
		policy: PolicyCuttleSys, service: "xapian", mix: seed + 7, seed: 2 * seed,
		slices: slices, load: load, budget: budget,
	}.run()
	if err != nil {
		return nil, err
	}
	return res.Slices, nil
}

// WriteDynamics renders a §VIII-D time series.
func WriteDynamics(w io.Writer, recs []harness.SliceRecord) {
	fmt.Fprintf(w, "%-5s %6s %10s %6s %8s %9s %8s %8s %8s %6s\n",
		"t", "load%", "p99(ms)", "QoS", "viol", "gmBIPS", "P(W)", "budget", "lcCfg", "lcCrs")
	for _, r := range recs {
		viol := ""
		if r.Violated {
			viol = "VIOL"
		}
		fmt.Fprintf(w, "%-5.1f %6.0f %10.2f %6.0f %8s %9.2f %8.1f %8.1f %8s %6d\n",
			r.T, 100*r.LoadFrac, r.P99Ms, r.QoSMs, viol, r.GmeanBIPS, r.AvgPowerW, r.BudgetW, r.LCCoreCfg, r.LCCores)
	}
}

package experiments

import (
	"cmp"
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
		res, _, err := s.cell(cell{policy: policy, cap: 0.7}, "xapian", seed+7).run()
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

// dynamics are the §VIII-D scenarios: the clauses each appends to the
// sim spec and the load or cap it runs at.
var dynamics = map[DynamicsScenario]cell{
	ScenarioVaryingLoad:   {clauses: "client primary {\narrival diurnal lo=0.2 hi=1 absolute\n}", cap: 0.7},
	ScenarioVaryingBudget: {clauses: "budget step lo=0.9 hi=0.6 from=0.3 to=0.7 absolute", load: 0.8},
	ScenarioRelocation:    {clauses: "client primary {\narrival step lo=0.2 hi=1.45 from=0.25 to=0.65 absolute\n}", cap: 0.9},
}

// Dynamics runs one §VIII-D scenario: CuttleSys managing Xapian plus a
// 16-job SPEC mix for `slices` timeslices, returning the per-slice
// records (load, tail latency vs QoS, batch throughput, power vs
// budget, LC configuration and core count).
func Dynamics(scenario DynamicsScenario, seed uint64, slices int) ([]harness.SliceRecord, error) {
	c, ok := dynamics[scenario]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown scenario %q", scenario)
	}
	c.policy, c.service, c.mix, c.seed, c.slices = PolicyCuttleSys, "xapian", seed+7, 2*seed, cmp.Or(slices, 20)
	res, _, err := c.run()
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

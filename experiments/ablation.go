package experiments

import (
	"fmt"
	"io"
	"math"

	"cuttlesys/internal/core"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/workload"
)

// AblationRow measures one runtime variant on the standard scenario.
type AblationRow struct {
	Variant       string
	QoSViolations int
	WorstP99Ratio float64
	TotalInstrB   float64
	MeanGmeanBIPS float64
}

// ablationVariants enumerates the guards DESIGN.md calls out, each
// disabled in turn, after the full runtime.
var ablationVariants = []struct {
	name string
	mod  func(*core.Params)
}{
	{"full", nil},
	{"no-util-veto", func(p *core.Params) { p.DisableUtilVeto = true }},
	{"no-latency-ewma", func(p *core.Params) { p.DisableLatencyEWMA = true }},
	{"no-drain-guard", func(p *core.Params) { p.DisableDrainGuard = true }},
	{"no-warm-start", func(p *core.Params) { p.DisableWarmStart = true }},
	{"factor-freeze", func(p *core.Params) { p.SGD.FactorMinObs = 8 }},
	{"serial-dds", func(p *core.Params) { p.DDS.Workers = 1 }},
}

// Ablation runs CuttleSys with each guard disabled in turn on a
// near-saturation scenario (where the guards matter most) and reports
// QoS and throughput — the contribution analysis for the design
// choices DESIGN.md documents beyond the paper's text.
func Ablation(s Setup) ([]AblationRow, error) {
	s = s.withDefaults()
	var rows []AblationRow
	for _, v := range ablationVariants {
		t, err := s.sweep(PolicyCuttleSys, 0.7, v.mod)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Variant:       v.name,
			QoSViolations: t.violations,
			WorstP99Ratio: t.worstRatio,
			TotalInstrB:   t.instrB,
			MeanGmeanBIPS: t.gmeanBIPS,
		})
	}
	return rows, nil
}

// WriteAblation renders the ablation table.
func WriteAblation(w io.Writer, rows []AblationRow) {
	fmt.Fprintf(w, "%-18s %10s %14s %12s %12s\n",
		"variant", "QoS viols", "worst p99/QoS", "instr (B)", "gmean BIPS")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %10d %14.2f %12.1f %12.2f\n",
			r.Variant, r.QoSViolations, r.WorstP99Ratio, r.TotalInstrB, r.MeanGmeanBIPS)
	}
}

// ProportionalityRow is one point of the energy-proportionality curve:
// server power versus offered load for one design.
type ProportionalityRow struct {
	Design   string
	LoadFrac float64
	PowerW   float64
}

// EnergyProportionality quantifies the §I claim that reconfigurable
// cores make servers more energy proportional: a CuttleSys-managed
// machine's power tracks the service's load down (cores downsize when
// idle-ish), while a fixed-core machine's power barely moves. The
// machine here runs the LC service alone (no batch), uncapped, so the
// measured power is pure load response.
func EnergyProportionality(service string, seed uint64, loads []float64) ([]ProportionalityRow, error) {
	if len(loads) == 0 {
		loads = []float64{0.1, 0.25, 0.5, 0.75, 1.0}
	}
	designs := []struct {
		name, policy string
		slices       int
	}{
		{"fixed", PolicyNoGating, 6},       // all cores at the widest configuration
		{"cuttlesys", PolicyCuttleSys, 10}, // reconfigurable cores under CuttleSys
	}
	var rows []ProportionalityRow
	for _, load := range loads {
		for _, d := range designs {
			pol, err := lookupPolicy(d.policy)
			if err != nil {
				return nil, err
			}
			m := lcOnlyMachine(service, seed, pol.reconfigurable)
			res, err := harness.Run(m, pol.scheduler(m, core.Params{Seed: seed}), d.slices,
				harness.ConstantLoad(load), harness.ConstantBudget(10))
			if err != nil {
				return nil, err
			}
			rows = append(rows, ProportionalityRow{Design: d.name, LoadFrac: load, PowerW: meanPower(res)})
		}
	}
	return rows, nil
}

// lcOnlyMachine builds a 32-core machine whose only tenant is the LC
// service (the other half of the chip sits gated).
func lcOnlyMachine(service string, seed uint64, reconfigurable bool) *sim.Machine {
	lc, err := workload.ByName(service)
	if err != nil {
		panic(err)
	}
	return sim.New(sim.Spec{
		Seed:           seed,
		LC:             lc,
		Reconfigurable: reconfigurable,
	})
}

func meanPower(res *harness.Result) float64 {
	sum := 0.0
	for _, s := range res.Slices {
		sum += s.AvgPowerW
	}
	return sum / float64(len(res.Slices))
}

// DynamicRange summarises a proportionality curve: power at the lowest
// load over power at the highest — lower is more proportional.
func DynamicRange(rows []ProportionalityRow, design string) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	var pLo, pHi float64
	for _, r := range rows {
		if r.Design != design {
			continue
		}
		if r.LoadFrac < lo {
			lo, pLo = r.LoadFrac, r.PowerW
		}
		if r.LoadFrac > hi {
			hi, pHi = r.LoadFrac, r.PowerW
		}
	}
	if pHi == 0 {
		return 0
	}
	return pLo / pHi
}

// WriteProportionality renders the curve.
func WriteProportionality(w io.Writer, rows []ProportionalityRow) {
	byDesign := map[string][]ProportionalityRow{}
	for _, r := range rows {
		byDesign[r.Design] = append(byDesign[r.Design], r)
	}
	for _, d := range sortedKeys(byDesign) {
		fmt.Fprintf(w, "%-10s", d)
		for _, r := range byDesign[d] {
			fmt.Fprintf(w, "  %3.0f%%:%6.1fW", 100*r.LoadFrac, r.PowerW)
		}
		fmt.Fprintf(w, "   (idle/peak = %.2f)\n", DynamicRange(rows, d))
	}
}

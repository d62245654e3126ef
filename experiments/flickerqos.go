package experiments

import (
	"fmt"
	"io"
)

// FlickerQoSRow summarises one policy's tail-latency behaviour in the
// §VIII-E Flicker comparison.
type FlickerQoSRow struct {
	Policy        string
	WorstP99Ms    float64
	WorstP99Ratio float64 // worst p99 / QoS
	QoSViolations int
	RelInstr      float64 // vs the no-gating reference
}

// FlickerQoSComparison reproduces the §VIII-E runtime comparison:
// Flicker evaluated both ways — (a) profiling every application,
// including the latency-critical service, for 10 ms per 3MM3 sample;
// (b) pinning the service to {6,6,6} and managing only the batch jobs
// — against CuttleSys on the same mixes. The paper reports QoS
// violations of over an order of magnitude for (a) and ~1.5× for (b),
// while CuttleSys meets QoS throughout; our substrate's narrower
// reconfiguration dynamic range shrinks the magnitudes but preserves
// the ordering (see EXPERIMENTS.md).
func FlickerQoSComparison(s Setup) ([]FlickerQoSRow, error) {
	s = s.withDefaults()
	ref, err := s.noGatingInstr()
	if err != nil {
		return nil, err
	}
	var rows []FlickerQoSRow
	for _, policy := range []string{PolicyFlickerA, PolicyFlickerB, PolicyCuttleSys} {
		t, err := s.sweep(cell{policy: policy, cap: 0.7})
		if err != nil {
			return nil, err
		}
		rows = append(rows, FlickerQoSRow{
			Policy:        policy,
			WorstP99Ms:    t.worstP99Ms,
			WorstP99Ratio: t.worstRatio,
			QoSViolations: t.violations,
			RelInstr:      t.instrB / ref,
		})
	}
	return rows, nil
}

// WriteFlickerQoS renders the comparison.
func WriteFlickerQoS(w io.Writer, rows []FlickerQoSRow) {
	fmt.Fprintf(w, "%-12s %14s %14s %10s %10s\n",
		"policy", "worst p99(ms)", "worst p99/QoS", "QoS viols", "rel instr")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %14.2f %14.2f %10d %10.2f\n",
			r.Policy, r.WorstP99Ms, r.WorstP99Ratio, r.QoSViolations, r.RelInstr)
	}
}

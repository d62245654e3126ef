package experiments

import (
	"fmt"
	"io"

	"cuttlesys/internal/core"
)

// CapSweepRow is one cell of the Fig. 5c comparison: one policy at one
// power cap, aggregated over services and mixes.
type CapSweepRow struct {
	Cap    float64
	Policy string
	// RelInstr is total batch instructions relative to the no-gating
	// reference on the same mixes (§VII-B's comparison metric).
	RelInstr float64
	// QoSViolations counts violated slices across all runs.
	QoSViolations int
	// WorstP99Ratio is the worst p99/QoS observed.
	WorstP99Ratio float64
}

// Fig5cPowerCapSweep reproduces Fig. 5c: relative instructions versus
// the no-gating reference across power caps for core-level gating
// (with and without way-partitioning), the oracle-like asymmetric
// multicore and CuttleSys. The paper's headline: CuttleSys up to 2.46×
// over gating+wp and 1.55× over the asymmetric oracle at stringent
// caps, while never violating QoS; slightly below the fixed designs at
// relaxed caps due to the reconfiguration overheads.
func Fig5cPowerCapSweep(s Setup) ([]CapSweepRow, error) {
	s = s.withDefaults()
	ref, err := s.noGatingInstr()
	if err != nil {
		return nil, err
	}
	var rows []CapSweepRow
	for _, capFrac := range s.Caps {
		for _, policy := range ComparisonPolicies {
			t, err := s.sweep(policy, capFrac, nil)
			if err != nil {
				return nil, err
			}
			rows = append(rows, CapSweepRow{
				Cap: capFrac, Policy: policy,
				RelInstr:      t.instrB / ref,
				QoSViolations: t.violations,
				WorstP99Ratio: t.worstRatio,
			})
		}
	}
	return rows, nil
}

// WriteCapSweep renders a cap sweep as the Fig. 5c table.
func WriteCapSweep(w io.Writer, rows []CapSweepRow, policies []string) {
	fmt.Fprintf(w, "%-6s", "cap")
	for _, p := range policies {
		fmt.Fprintf(w, " %18s", p)
	}
	fmt.Fprintln(w)
	byCap := map[float64]map[string]CapSweepRow{}
	var caps []float64
	for _, r := range rows {
		if byCap[r.Cap] == nil {
			byCap[r.Cap] = map[string]CapSweepRow{}
			caps = append(caps, r.Cap)
		}
		byCap[r.Cap][r.Policy] = r
	}
	for _, c := range caps {
		fmt.Fprintf(w, "%-6.0f", c*100)
		for _, p := range policies {
			r := byCap[c][p]
			fmt.Fprintf(w, " %12.2f (%dV)", r.RelInstr, r.QoSViolations)
		}
		fmt.Fprintln(w)
	}
}

// SearcherRow is one cell of Fig. 10b: CuttleSys with DDS versus GA as
// the design-space explorer, under SGD inference for both.
type SearcherRow struct {
	Cap       float64
	Searcher  string // "dds" or "ga"
	GmeanBIPS float64
}

// Fig10bDDSvsGA reproduces Fig. 10b: the geometric-mean batch
// throughput of SGD+DDS versus SGD+GA across power caps. The paper
// reports DDS ahead by up to 19 %, with the gap largest at
// intermediate caps and smallest at 50 %.
func Fig10bDDSvsGA(s Setup) ([]SearcherRow, error) {
	s = s.withDefaults()
	searchers := []struct {
		name  string
		tweak func(*core.Params)
	}{
		{"dds", nil},
		{"ga", func(p *core.Params) { p.Searcher = core.SearchGA }},
	}
	var rows []SearcherRow
	for _, capFrac := range s.Caps {
		for _, sr := range searchers {
			t, err := s.sweep(PolicyCuttleSys, capFrac, sr.tweak)
			if err != nil {
				return nil, err
			}
			rows = append(rows, SearcherRow{Cap: capFrac, Searcher: sr.name, GmeanBIPS: t.gmeanBIPS})
		}
	}
	return rows, nil
}

// WriteSearcherRows renders Fig. 10b with the DDS/GA ratio.
func WriteSearcherRows(w io.Writer, rows []SearcherRow) {
	byCap := map[float64]map[string]float64{}
	var caps []float64
	for _, r := range rows {
		if byCap[r.Cap] == nil {
			byCap[r.Cap] = map[string]float64{}
			caps = append(caps, r.Cap)
		}
		byCap[r.Cap][r.Searcher] = r.GmeanBIPS
	}
	fmt.Fprintf(w, "%-6s %12s %12s %8s\n", "cap", "SGD-DDS", "SGD-GA", "ratio")
	for _, c := range caps {
		d, g := byCap[c]["dds"], byCap[c]["ga"]
		ratio := 0.0
		if g > 0 {
			ratio = d / g
		}
		fmt.Fprintf(w, "%-6.0f %12.3f %12.3f %8.3f\n", c*100, d, g, ratio)
	}
}

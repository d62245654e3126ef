package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// Verdicts of -compare.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictChanged    = "changed"
)

func readReport(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// judge compares one metric of the baseline a against the candidate b.
// Runs of one seed do the same simulated work, so sim.* metrics must
// match exactly and host-time metrics are held to the tight same-seed
// bound; across seeds both are held to the wider seedBound, and a
// metric without one cannot be judged. Host-time metrics move with the
// host, so they are judged only when the two reports' calibration loops
// agree.
func judge(def *metricDef, a, b float64, sameSeed, hostsAgree bool) (rel float64, limit string, verdict string) {
	if a != 0 {
		rel = (b - a) / math.Abs(a)
	}
	gain := b - a
	if def.better == "lower" {
		gain = a - b
	}
	bound := def.bound
	if !sameSeed {
		bound = def.seedBound
	}
	simulated := strings.HasPrefix(def.name, "sim.")
	limit = fmt.Sprintf("%.0f%%", 100*bound)
	if simulated && sameSeed {
		limit = "exact"
	}
	switch {
	case !sameSeed && bound == 0, !simulated && !hostsAgree:
		return rel, limit, verdictUnresolved
	case gain < -bound*math.Abs(a):
		return rel, limit, verdictWorse
	case gain > bound*math.Abs(a):
		return rel, limit, verdictBetter
	}
	return rel, limit, verdictSame
}

func meanCalib(r *report) float64 { return (r.CalibMs[0] + r.CalibMs[1]) / 2 }

// compareReports prints, per workload and end-to-end metric, both
// values, their relative difference, the bound and a verdict, and
// reports whether anything got worse.
func compareReports(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	ca, cb := meanCalib(a), meanCalib(b)
	hostsAgree := ca > 0 && math.Abs(cb-ca) <= calibTolerance*ca
	fmt.Fprintf(w, "baseline  %s (seed %d, calib %.2f ms)\ncandidate %s (seed %d, calib %.2f ms)\n",
		pathA, a.Seed, ca, pathB, b.Seed, cb)
	if !hostsAgree {
		fmt.Fprintf(w, "host calibration differs by more than %.0f%%: host-time metrics are unresolved\n", 100*calibTolerance)
	}
	sameSeed := a.Seed == b.Seed
	if !sameSeed {
		fmt.Fprintln(w, "seeds differ: the wider across-seed bounds apply and sim.* metrics cannot match exactly")
	}
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		var wb *workloadReport
		for j := range b.Workloads {
			if b.Workloads[j].Name == wa.Name {
				wb = &b.Workloads[j]
			}
		}
		if wb == nil {
			return false, fmt.Errorf("workload %s is missing from %s", wa.Name, pathB)
		}
		if wa.Slices != wb.Slices {
			return false, fmt.Errorf("workload %s ran %d slices in %s and %d in %s: not the same benchmark",
				wa.Name, wa.Slices, pathA, wb.Slices, pathB)
		}
		fmt.Fprintf(w, "\n%s\n  %-38s %14s %14s %9s %7s  %s\n", wa.Name, "metric", "baseline", "candidate", "diff", "bound", "verdict")
		for k := range endToEnd {
			def := &endToEnd[k]
			va, vb := wa.EndToEnd[def.name].Value, wb.EndToEnd[def.name].Value
			rel, bound, verdict := judge(def, va, vb, sameSeed, hostsAgree)
			fmt.Fprintf(w, "  %-38s %14.6g %14.6g %+8.2f%% %7s  %s\n", def.name, va, vb, 100*rel, bound, verdict)
			worse = worse || verdict == verdictWorse
		}
		// A larger share of failed operations is worse whatever else moved.
		fa := float64(wa.OpsFailed) / math.Max(float64(wa.OpsAttempted), 1)
		fb := float64(wb.OpsFailed) / math.Max(float64(wb.OpsAttempted), 1)
		verdict := verdictSame
		switch {
		case fb > fa:
			verdict, worse = verdictWorse, true
		case fb < fa:
			verdict = verdictBetter
		}
		fmt.Fprintf(w, "  %-38s %14.6g %14.6g %9s %7s  %s\n", "ops_failed/ops_attempted", fa, fb, "", "exact", verdict)
		verdict = verdictSame
		switch {
		case !sameSeed:
			verdict = verdictUnresolved
		case wa.SimDigest != wb.SimDigest:
			verdict = verdictChanged
		}
		fmt.Fprintf(w, "  %-38s %14s %14s %9s %7s  %s\n", "sim_digest", wa.SimDigest[:12], wb.SimDigest[:12], "", "exact", verdict)
	}
	return worse, nil
}

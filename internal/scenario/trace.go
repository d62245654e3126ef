package scenario

import (
	"encoding/csv"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// TraceRow is one record of a traffic trace: at time T seconds the
// named client's offered rate became QPS queries per second.
type TraceRow struct {
	T      float64
	Client string
	QPS    float64
}

// ParseTrace reads a recorded-traffic CSV: timestamp,client,qps rows,
// one optional header line, '#' comment lines and blank lines
// ignored. Rows are returned stably sorted by timestamp, so
// same-timestamp updates keep file order and the later row wins
// during replay.
func ParseTrace(src []byte) ([]TraceRow, error) {
	rd := csv.NewReader(strings.NewReader(string(src)))
	rd.Comment = '#'
	rd.FieldsPerRecord = 3
	rd.TrimLeadingSpace = true
	records, err := rd.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("scenario: trace: %w", err)
	}
	var rows []TraceRow
	for i, rec := range records {
		t, terr := strconv.ParseFloat(rec[0], 64)
		if terr != nil {
			if i == 0 {
				continue // header line
			}
			return nil, fmt.Errorf("scenario: trace row %d: bad timestamp %q", i+1, rec[0])
		}
		qps, qerr := strconv.ParseFloat(rec[2], 64)
		if qerr != nil || qps < 0 || math.IsNaN(qps) || math.IsInf(qps, 0) {
			return nil, fmt.Errorf("scenario: trace row %d: bad qps %q", i+1, rec[2])
		}
		if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			return nil, fmt.Errorf("scenario: trace row %d: bad timestamp %q", i+1, rec[0])
		}
		client := strings.TrimSpace(rec[1])
		if client == "" {
			return nil, fmt.Errorf("scenario: trace row %d: empty client", i+1)
		}
		rows = append(rows, TraceRow{T: t, Client: client, QPS: qps})
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("scenario: trace has no rows")
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].T < rows[j].T })
	return rows, nil
}

// resampleTrace deterministically resamples one client's rows onto
// the decision-quantum grid: the trace is read as a last-value-hold
// step function (held at the first row's rate before its timestamp,
// and at the final rate forever after), and quantum k receives the
// time-weighted mean rate over [k·quantum, (k+1)·quantum). The
// resampling rule involves no randomness and no clock reads — replay
// of a fixed trace is byte-identical everywhere.
func resampleTrace(rows []TraceRow, client string, slices int, quantum float64) ([]float64, error) {
	if slices <= 0 || quantum <= 0 {
		return nil, fmt.Errorf("scenario: trace resample needs positive slices and quantum")
	}
	var ts, qs []float64
	for _, r := range rows {
		if r.Client == client {
			ts = append(ts, r.T)
			qs = append(qs, r.QPS)
		}
	}
	if len(ts) == 0 {
		return nil, fmt.Errorf("scenario: trace has no rows for client %q (clients: %s)",
			client, strings.Join(traceClients(rows), ", "))
	}
	out := make([]float64, slices)
	for k := range out {
		t0 := float64(k) * quantum
		out[k] = integrateStep(ts, qs, t0, t0+quantum) / quantum
		if math.IsInf(out[k], 1) {
			// Rates within rounding of the float64 range overflow the
			// time-weighted mean; its true value is at most the peak.
			out[k] = tracePeak(rows, client)
		}
	}
	return out, nil
}

// integrateStep integrates the last-value-hold step function (ts, qs)
// over [t0, t1), walking segments in time order so the float
// summation order is fixed.
func integrateStep(ts, qs []float64, t0, t1 float64) float64 {
	total := 0.0
	for seg := range ts {
		segStart := ts[seg]
		if seg == 0 {
			segStart = math.Inf(-1) // hold the first rate backwards
		}
		segEnd := math.Inf(1)
		if seg+1 < len(ts) {
			segEnd = ts[seg+1]
		}
		lo := math.Max(segStart, t0)
		hi := math.Min(segEnd, t1)
		if hi > lo {
			total += qs[seg] * (hi - lo)
		}
	}
	return total
}

// tracePeak returns the client's maximum rate — the default
// normaliser mapping the busiest quantum to the clause's full rate.
func tracePeak(rows []TraceRow, client string) float64 {
	peak := 0.0
	for _, r := range rows {
		if r.Client == client && r.QPS > peak {
			peak = r.QPS
		}
	}
	return peak
}

// traceClients lists the distinct client names in row order, for
// error messages.
func traceClients(rows []TraceRow) []string {
	var names []string
	for _, r := range rows {
		found := false
		for _, n := range names {
			if n == r.Client {
				found = true
				break
			}
		}
		if !found {
			names = append(names, r.Client)
		}
	}
	return names
}

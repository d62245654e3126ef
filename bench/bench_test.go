package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cuttlesys/internal/fleet"
	"cuttlesys/internal/scenario"
)

// TestMain lets the test binary stand in for the benchmark binary when
// spawn re-executes it, so the child protocol is tested for real.
func TestMain(m *testing.M) {
	if req := os.Getenv(childEnv); req != "" {
		os.Exit(childMain(req))
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// smokeReport runs the whole benchmark once at smoke scale, in process.
func smokeReport(t *testing.T) (*report, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "smoke.json")
	var out bytes.Buffer
	ok, err := drive(options{seed: 1, smoke: true, out: path}, &out, serve)
	if err != nil {
		t.Fatalf("drive: %v\n%s", err, out.String())
	}
	if !ok {
		t.Fatalf("smoke run failed its checks:\n%s", out.String())
	}
	rep, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	return rep, path
}

func TestSmokeRun(t *testing.T) {
	rep, path := smokeReport(t)
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("%d workloads reported, want %d", len(rep.Workloads), len(workloads))
	}
	if rep.Note != unvalidatedNote || rep.Host.GoVersion == "" || rep.Host.GOMAXPROCS < 1 {
		t.Errorf("report lacks the note or the host fingerprint: %+v", rep.Host)
	}
	for _, wr := range rep.Workloads {
		// drive already failed the run on a digest mismatch between the
		// traced and untraced runs or on open span shares; Problems is
		// where it would have said so.
		if wr.OpsFailed != 0 || wr.OpsAttempted == 0 || len(wr.Problems) != 0 {
			t.Errorf("%s: attempted %d, failed %d, problems %v", wr.Name, wr.OpsAttempted, wr.OpsFailed, wr.Problems)
		}
		if wr.Slices > smokeSlices {
			t.Errorf("%s: smoke run took %d slices", wr.Name, wr.Slices)
		}
		if len(wr.EndToEnd) != len(endToEnd) || len(wr.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics, want %d and %d",
				wr.Name, len(wr.EndToEnd), len(wr.PerLayer), len(endToEnd), len(perLayer))
		}
		for name := range wr.EndToEnd {
			if !nameRE.MatchString(name) {
				t.Errorf("%s: metric name %q", wr.Name, name)
			}
		}
		for name := range wr.PerLayer {
			if !nameRE.MatchString(name) {
				t.Errorf("%s: layer metric name %q", wr.Name, name)
			}
		}
		if sum := wr.PerLayer["step.shares_sum"].Value; math.Abs(sum-1) > sharesTolerance {
			t.Errorf("%s: span shares sum to %v", wr.Name, sum)
		}
		// The workloads stress the layers the README says they do.
		self := wr.PerLayer["step.self_share"].Value
		switch wr.Name {
		case "fleet-steady", "single-machine":
			if self > 0.05 {
				t.Errorf("%s: %.3f of step time is unattributed, want at most 0.05", wr.Name, self)
			}
		case "substrate-baselines":
			if self < 0.8 {
				t.Errorf("%s: step.self_share %.3f, want at least 0.8", wr.Name, self)
			}
		case "ops-churn":
			if wr.PerLayer["modelplane.publishes"].Value == 0 || wr.PerLayer["ctrlplane.membership_events"].Value == 0 {
				t.Errorf("%s: model plane or control plane did no work", wr.Name)
			}
		}
	}

	// A report compared with itself is all "same".
	var out bytes.Buffer
	worse, err := compareReports(&out, path, path)
	if err != nil || worse {
		t.Fatalf("self-compare: worse=%v err=%v\n%s", worse, err, out.String())
	}
	for _, bad := range []string{verdictWorse, verdictBetter, verdictUnresolved, verdictChanged} {
		if strings.Contains(out.String(), "  "+bad+"\n") {
			t.Errorf("self-compare printed a %q verdict:\n%s", bad, out.String())
		}
	}
}

func simMetrics(t *testing.T, workload string, seed uint64) (map[string]float64, string) {
	t.Helper()
	res, err := runWorkload(runRequest{Workload: workload, Seed: seed, Slices: smokeSlices})
	if err != nil {
		t.Fatal(err)
	}
	sim := map[string]float64{}
	for k, v := range res.Metrics {
		if strings.HasPrefix(k, "sim.") {
			sim[k] = v
		}
	}
	return sim, res.SimDigest
}

func TestSeedDeterminesSimMetrics(t *testing.T) {
	for _, wl := range []string{"single-machine", "substrate-baselines"} {
		a, da := simMetrics(t, wl, 7)
		b, db := simMetrics(t, wl, 7)
		c, dc := simMetrics(t, wl, 8)
		if da != db {
			t.Errorf("%s: same seed, digests %s and %s", wl, da, db)
		}
		for k := range a {
			if a[k] != b[k] {
				t.Errorf("%s: same seed, %s = %v and %v", wl, k, a[k], b[k])
			}
		}
		if da == dc || a["sim.batch_instr_b_per_machine_slice"] == c["sim.batch_instr_b_per_machine_slice"] {
			t.Errorf("%s: seeds 7 and 8 gave the same run", wl)
		}
	}
}

// resultDigest folds a scenario.Result the way the bench's stepping
// loop folds the records it sees step by step.
func resultDigest(res *scenario.Result) string {
	h := newDigest()
	var out stepOut
	cursor := make([]int, len(res.Fleet.Nodes))
	for i := range res.Fleet.Slices {
		rec := &res.Fleet.Slices[i]
		if res.Control != nil {
			m := res.Control.Slices[i]
			h.float(m.UnroutedQPS)
			h.int(m.Serving)
			for _, st := range m.States {
				h.str(st)
			}
		}
		tele := make([]fleet.Telemetry, len(res.Fleet.Nodes))
		for _, id := range rec.Members {
			nr := res.Fleet.Nodes[id].Slices[cursor[id]]
			cursor[id]++
			tele[id] = fleet.Telemetry{AvgPowerW: nr.AvgPowerW, QoSMs: nr.QoSMs}
		}
		out.reset()
		foldFleetRecord(&out, &h, rec, tele)
	}
	return h.String()
}

// The bench steps slice by slice so it can time each step; that loop
// must be the run the scenario engine itself would have made.
func TestSteppingMatchesScenarioRun(t *testing.T) {
	for _, tc := range []struct{ spec, workload string }{
		{"fleet-steady", "fleet-steady"},
		{"ops-churn", "ops-churn"},
	} {
		c, err := compileSpec(tc.spec, 3, smokeSlices)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		got, err := runWorkload(runRequest{Workload: tc.workload, Seed: 3, Slices: smokeSlices})
		if err != nil {
			t.Fatal(err)
		}
		if got.SimDigest != resultDigest(want) {
			t.Errorf("%s: stepping loop digest %s, Compiled.Run digest %s", tc.spec, got.SimDigest, resultDigest(want))
		}
	}
}

func TestSpecsAreCanonicalisable(t *testing.T) {
	entries, err := specFS.ReadDir("specs")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("%d bench specs, want 2", len(entries))
	}
	for _, e := range entries {
		src, err := specFS.ReadFile("specs/" + e.Name())
		if err != nil {
			t.Fatal(err)
		}
		s1, err := scenario.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		canon := scenario.Format(s1)
		s2, err := scenario.Parse(canon)
		if err != nil {
			t.Fatalf("%s: canonical form does not parse: %v", e.Name(), err)
		}
		if !bytes.Equal(scenario.Format(s2), canon) || scenario.Hash(s1) != scenario.Hash(s2) {
			t.Errorf("%s: Parse∘Format is not a fixed point", e.Name())
		}
	}
}

// The child protocol for real: the driver re-executes its own binary
// (here the test binary, see TestMain) and reads one JSON answer.
func TestChildProtocol(t *testing.T) {
	res, err := spawn(childRequest{Run: &runRequest{Workload: "substrate-baselines", Seed: 1, Slices: smokeSlices}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Run == nil || res.Run.OpsAttempted != substrateMachines*smokeSlices || res.Run.OpsFailed != 0 {
		t.Errorf("child answered %+v", res.Run)
	}
	if _, err := spawn(childRequest{Run: &runRequest{Workload: "no-such-workload", Slices: smokeSlices}}); err == nil {
		t.Error("child accepted an unknown workload")
	}
}

// BENCHMARK.json, the metric tables and the workload list say the same
// thing, within the benchmark contract's naming and size rules.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the bench", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q", i, w.Name, w.Why)
		}
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(got metric, want *metricDef, bounded bool) {
		if got.Name != want.name || got.Unit != want.unit || got.Better != want.better {
			t.Errorf("BENCHMARK.json has %+v, the table has %+v", got, *want)
		}
		if !nameRE.MatchString(got.Name) || len(got.Name) > 64 || !unitRE.MatchString(got.Unit) || seen[got.Name] {
			t.Errorf("metric %q (unit %q) breaks the naming rules or repeats", got.Name, got.Unit)
		}
		seen[got.Name] = true
		switch {
		case bounded && (got.Bound == nil || *got.Bound != want.seedBound || *got.Bound <= 0 || *got.Bound > 0.25):
			t.Errorf("%s: bound %v, table says %v", got.Name, got.Bound, want.seedBound)
		case !bounded && got.Bound != nil:
			t.Errorf("%s: per-layer metrics carry no bound", got.Name)
		}
	}
	var contract []*metricDef
	for i := range endToEnd {
		if endToEnd[i].seedBound > 0 {
			contract = append(contract, &endToEnd[i])
		}
	}
	if len(spec.EndToEnd) != len(contract) || len(spec.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, the tables %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(contract), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		check(m, contract[i], true)
	}
	for i, m := range spec.PerLayer {
		check(m, &perLayer[i], false)
	}
}

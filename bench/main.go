// Command bench is the repository's wall-clock benchmark: four seeded
// workloads driven through the public functions of the existing
// packages, eleven end-to-end metrics per workload measured with
// tracing off, and a separate traced run plus isolated kernels for the
// per-layer numbers. See README.md in this directory.
//
//	go run ./bench -seed 1
//
// One driver goroutine steps decision quanta back to back (closed loop,
// one client); one operation is one machine-slice. Each run happens in
// a child process — the driver re-executes itself, one child at a time —
// so set-up is always cold and memory numbers belong to one workload.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"cuttlesys/internal/stats"
)

// childEnv carries a child's request. It is an environment variable,
// not a flag, so the command line stays the documented one.
const childEnv = "CUTTLEBENCH_CHILD"

// Run sizing. A run is sized in seconds on the reference host and
// turned into a fixed slice count (see workloadDef.stepsPerSec); the
// simulated statistics of a seed then repeat exactly on any host.
const (
	defaultSeconds  = 20
	smokeSlices     = 12
	setupSamples    = 3   // cold set-ups per workload; setup_s is their median
	deadlineStretch = 1.5 // contract runs stop at this multiple of -seconds
	sharesTolerance = 0.02
	calibTolerance  = 0.10
)

const unvalidatedNote = "model unvalidated against hardware; no error figure"

type options struct {
	seed     uint64
	workload string
	smoke    bool
	out      string
	spans    string
	seconds  int
	trace    int
}

func main() {
	if req := os.Getenv(childEnv); req != "" {
		os.Exit(childMain(req))
	}
	var opt options
	var compare bool
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.Uint64Var(&opt.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.StringVar(&opt.workload, "workload", "", "run one workload (default: all four)")
	fs.BoolVar(&opt.smoke, "smoke", false, "tiny runs (12 slices per workload) that only check the plumbing")
	fs.StringVar(&opt.out, "o", "", "write the full report as JSON to this file")
	fs.StringVar(&opt.spans, "spans", "", "write each traced run's spans as Chrome trace_event JSON (out.json -> out.<workload>.json)")
	fs.BoolVar(&compare, "compare", false, "compare two report files: -compare a.json b.json")
	fs.IntVar(&opt.seconds, "seconds", 0, "benchmark-contract mode: measure -workload for this long and end with one JSON line")
	fs.IntVar(&opt.trace, "trace", 0, "benchmark-contract mode: 0 reports end-to-end metrics, 1 per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	var err error
	switch {
	case compare:
		if fs.NArg() != 2 {
			err = errors.New("-compare wants two report files")
			break
		}
		var worse bool
		if worse, err = compareReports(os.Stdout, fs.Arg(0), fs.Arg(1)); err == nil && worse {
			os.Exit(1)
		}
	case fs.NArg() != 0:
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	default:
		// A contract run reports failed checks in its JSON line
		// ("correct": false) and still exits 0; the full run exits 1.
		var ok bool
		if ok, err = drive(opt, os.Stdout, spawn); err == nil && !ok && opt.seconds <= 0 {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// childRequest is what the driver asks one child process to do.
type childRequest struct {
	Run     *runRequest `json:"run,omitempty"`
	Kernels bool        `json:"kernels,omitempty"`
	Seed    uint64      `json:"seed,omitempty"`
	Smoke   bool        `json:"smoke,omitempty"`
}

// childResult is the child's answer, one JSON object on stdout.
type childResult struct {
	Run     *runResult         `json:"run,omitempty"`
	Kernels map[string]float64 `json:"kernels,omitempty"`
	Error   string             `json:"error,omitempty"`
}

// serve answers one child request in this process.
func serve(req childRequest) (*childResult, error) {
	var res childResult
	var err error
	switch {
	case req.Run != nil:
		res.Run, err = runWorkload(*req.Run)
	case req.Kernels:
		res.Kernels, err = runKernels(req.Seed, req.Smoke)
	default:
		err = errors.New("empty child request")
	}
	if err != nil {
		res.Error = err.Error()
	}
	return &res, err
}

func childMain(raw string) int {
	var req childRequest
	res := &childResult{}
	err := json.Unmarshal([]byte(raw), &req)
	if err == nil {
		res, err = serve(req)
	} else {
		res.Error = err.Error()
	}
	if encErr := json.NewEncoder(os.Stdout).Encode(res); encErr != nil {
		fmt.Fprintln(os.Stderr, "bench child:", encErr)
		return 1
	}
	if err != nil {
		return 1
	}
	return 0
}

// A runner executes one child request. The benchmark uses spawn; tests
// substitute an in-process runner.
type runner func(childRequest) (*childResult, error)

// spawn runs one child to completion and decodes its answer. The child
// inherits stderr; the driver waits for it, so no process outlives the
// benchmark.
func spawn(req childRequest) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw))
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	var res childResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("child failed: %w", runErr)
		}
		return nil, fmt.Errorf("child answer: %w", err)
	}
	if res.Error != "" {
		return &res, errors.New(res.Error)
	}
	return &res, runErr
}

// metricValue is one reported number with its unit and, for a timing,
// the number of samples behind it.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// workloadReport is everything measured for one workload.
type workloadReport struct {
	Name         string                 `json:"name"`
	Why          string                 `json:"why"`
	Slices       int                    `json:"slices"`
	TracedSlices int                    `json:"traced_slices,omitempty"`
	TimedSteps   int                    `json:"timed_steps"`
	Truncated    bool                   `json:"truncated,omitempty"`
	OpsAttempted int                    `json:"ops_attempted"`
	OpsFailed    int                    `json:"ops_failed"`
	SimDigest    string                 `json:"sim_digest"`
	SetupSamples []float64              `json:"setup_s_samples"`
	EndToEnd     map[string]metricValue `json:"end_to_end"`
	PerLayer     map[string]metricValue `json:"per_layer,omitempty"`
	Problems     []string               `json:"problems,omitempty"`
}

// report is the file -o writes and -compare reads.
type report struct {
	Note      string           `json:"note"`
	Host      hostInfo         `json:"host"`
	Seed      uint64           `json:"seed"`
	Smoke     bool             `json:"smoke,omitempty"`
	CalibMs   [2]float64       `json:"host_calib_ms"`
	Noisy     bool             `json:"noisy"`
	Workloads []workloadReport `json:"workloads"`
	// LayerMoves says, per per-layer metric, which end-to-end metric on
	// which workload it is expected to move.
	LayerMoves map[string]string `json:"layer_moves,omitempty"`
}

// slicesFor sizes a workload's untraced run.
func slicesFor(def *workloadDef, opt options) int {
	if opt.smoke {
		return smokeSlices
	}
	secs := opt.seconds
	if secs <= 0 {
		secs = defaultSeconds
	}
	n := int(math.Round(float64(secs) * def.stepsPerSec))
	return warmupSlices(20) + n
}

func spansPath(base, workload string) string {
	if base == "" {
		return ""
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "." + workload + ext
}

// drive runs the benchmark and reports whether every check passed.
func drive(opt options, w io.Writer, run runner) (bool, error) {
	contract := opt.seconds > 0
	if contract && opt.workload == "" {
		return false, errors.New("-seconds needs -workload")
	}
	if opt.trace != 0 && opt.trace != 1 {
		return false, fmt.Errorf("-trace %d: want 0 or 1", opt.trace)
	}
	defs := make([]*workloadDef, 0, len(workloads))
	for i := range workloads {
		if opt.workload == "" || opt.workload == workloads[i].name {
			defs = append(defs, &workloads[i])
		}
	}
	if len(defs) == 0 {
		_, err := workloadByName(opt.workload)
		return false, err
	}
	traced := !contract || opt.trace == 1

	rep := report{Note: unvalidatedNote, Host: fingerprint(), Seed: opt.seed, Smoke: opt.smoke}
	rep.CalibMs[0] = calibrate()
	for _, def := range defs {
		wr, err := measure(def, opt, contract, traced, run)
		if err != nil {
			return false, err
		}
		rep.Workloads = append(rep.Workloads, *wr)
	}
	var kernels map[string]float64
	if traced {
		res, err := run(childRequest{Kernels: true, Seed: opt.seed, Smoke: opt.smoke})
		if err != nil {
			return false, fmt.Errorf("kernels: %w", err)
		}
		kernels = res.Kernels
	}
	rep.CalibMs[1] = calibrate()
	rep.Noisy = math.Abs(rep.CalibMs[1]-rep.CalibMs[0]) > calibTolerance*rep.CalibMs[0]

	ok := true
	for i := range rep.Workloads {
		wr := &rep.Workloads[i]
		if traced {
			for _, k := range sortedKeys(kernels) {
				setLayer(wr, k, kernels[k])
			}
			setLayer(wr, "host.calib_ms_start", rep.CalibMs[0])
			setLayer(wr, "host.calib_ms_end", rep.CalibMs[1])
			for _, def := range perLayer {
				if _, have := wr.PerLayer[def.name]; !have {
					setLayer(wr, def.name, 0)
				}
			}
		}
		ok = ok && len(wr.Problems) == 0
	}
	printReport(w, &rep, traced)
	if traced {
		rep.LayerMoves = map[string]string{}
		for _, def := range perLayer {
			rep.LayerMoves[def.name] = def.moves
		}
	}
	if opt.out != "" {
		buf, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(opt.out, append(buf, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	if contract {
		if err := printContractLine(w, &rep.Workloads[0], opt.trace == 1); err != nil {
			return false, err
		}
	}
	return ok, nil
}

func setLayer(wr *workloadReport, name string, v float64) {
	def := metricByName(perLayer, name)
	if def == nil {
		wr.Problems = append(wr.Problems, "layer metric "+name+" is not in the metric table")
		return
	}
	wr.PerLayer[name] = metricValue{Value: v, Unit: def.unit}
}

// measure runs one workload's children: the untraced run that yields
// the end-to-end metrics, extra cold set-ups in contract mode, and the
// traced run with its transparency checks.
func measure(def *workloadDef, opt options, contract, traced bool, run runner) (*workloadReport, error) {
	slices := slicesFor(def, opt)
	tracedSlices := slices / 2
	req := runRequest{Workload: def.name, Seed: opt.seed, Slices: slices}
	if contract && traced {
		// A per-layer contract run needs the untraced run only as the
		// reference for the digest and the slowdown, so both are half size.
		req.Steps = tracedSlices
	}
	if contract && !traced {
		req.DeadlineS = deadlineStretch * float64(opt.seconds)
	}
	if traced {
		req.Checkpoint = tracedSlices
	}
	res, err := run(childRequest{Run: &req})
	if err != nil && (res == nil || res.Run == nil) {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	un := res.Run
	wr := &workloadReport{
		Name: def.name, Why: def.why, Slices: un.Slices, TimedSteps: un.TimedSteps,
		Truncated: un.Truncated, OpsAttempted: un.OpsAttempted, OpsFailed: un.OpsFailed,
		SimDigest: un.SimDigest, EndToEnd: map[string]metricValue{},
	}
	if un.Error != "" {
		wr.Problems = append(wr.Problems, "step failed: "+un.Error)
	}
	if un.OpsFailed > 0 {
		wr.Problems = append(wr.Problems, fmt.Sprintf("%d of %d operations failed", un.OpsFailed, un.OpsAttempted))
	}
	// setup_s is timed from outside: child start to first slice ready —
	// process start, spec parse and compile, offline characterisation in
	// core.New, machine and fleet assembly — each time in a fresh process,
	// so nothing is cached. Per-layer contract runs do not report it.
	samples := setupSamples
	if opt.smoke {
		samples = 1
	}
	for i := 0; i < samples && !(contract && traced); i++ {
		sreq := req
		sreq.SetupOnly = true
		t0 := now()
		if _, err := run(childRequest{Run: &sreq}); err != nil {
			return nil, fmt.Errorf("%s: set-up sample: %w", def.name, err)
		}
		wr.SetupSamples = append(wr.SetupSamples, seconds(since(t0)))
	}
	for _, m := range endToEnd {
		mv := metricValue{Value: un.Metrics[m.name], Unit: m.unit}
		switch m.name {
		case "setup_s":
			mv.Value, mv.Samples = stats.Percentile(wr.SetupSamples, 0.5), len(wr.SetupSamples)
		case "slice_wall_ms_p50", "slice_wall_ms_p95", "machine_slices_per_s":
			mv.Samples = un.TimedSteps
		}
		wr.EndToEnd[m.name] = mv
	}
	if !traced {
		return wr, nil
	}

	treq := runRequest{
		Workload: def.name, Seed: opt.seed, Slices: slices, Steps: tracedSlices, Traced: true,
		SpansPath: spansPath(opt.spans, def.name),
	}
	tres, err := run(childRequest{Run: &treq})
	if err != nil && (tres == nil || tres.Run == nil) {
		return nil, fmt.Errorf("%s traced: %w", def.name, err)
	}
	tr := tres.Run
	wr.TracedSlices = tr.Slices
	wr.PerLayer = map[string]metricValue{}
	if tr.Error != "" {
		wr.Problems = append(wr.Problems, "traced step failed: "+tr.Error)
	}
	// One check proves three things: the decorators are transparent, the
	// replica matches the scenario engine, and serial equals parallel.
	if tr.SimDigest != un.CheckDigest {
		wr.Problems = append(wr.Problems, fmt.Sprintf("traced digest %s != untraced digest %s at slice %d",
			tr.SimDigest, un.CheckDigest, tracedSlices))
	}
	for _, k := range sortedKeys(tr.Layers) {
		setLayer(wr, k, tr.Layers[k])
	}
	for _, k := range sortedKeys(un.Mem) {
		setLayer(wr, k, un.Mem[k])
	}
	if sum := tr.Layers["step.shares_sum"]; math.Abs(sum-1) > sharesTolerance {
		wr.Problems = append(wr.Problems, fmt.Sprintf("span shares sum to %.4f, not 1", sum))
	}
	if un.MachineSlices > 0 && tr.MachineSlices > 0 && un.WallS > 0 {
		// Includes the parallelism the serial traced run gives up, not
		// only the cost of recording spans and events.
		setLayer(wr, "trace.slowdown_ratio",
			(tr.WallS/float64(tr.MachineSlices))/(un.WallS/float64(un.MachineSlices)))
	}
	return wr, nil
}

func printReport(w io.Writer, rep *report, traced bool) {
	h := rep.Host
	fmt.Fprintf(w, "cuttlesys bench: seed %d, %s\n", rep.Seed, rep.Note)
	fmt.Fprintf(w, "host: %s, %d cpus, GOMAXPROCS %d, GOGC %s, %s %s/%s, commit %s\n",
		h.CPUModel, h.NProc, h.GOMAXPROCS, h.GOGC, h.GoVersion, h.GOOS, h.GOARCH, orDash(h.Commit))
	fmt.Fprintf(w, "host calibration: %.2f ms before, %.2f ms after, noisy=%v\n", rep.CalibMs[0], rep.CalibMs[1], rep.Noisy)
	for i := range rep.Workloads {
		wr := &rep.Workloads[i]
		fmt.Fprintf(w, "\nworkload %s: %d slices, %d timed steps, ops_attempted %d, ops_failed %d, sim_digest %s",
			wr.Name, wr.Slices, wr.TimedSteps, wr.OpsAttempted, wr.OpsFailed, wr.SimDigest)
		if wr.Truncated {
			fmt.Fprint(w, " (truncated at the deadline)")
		}
		fmt.Fprintln(w)
		for _, m := range endToEnd {
			mv := wr.EndToEnd[m.name]
			fmt.Fprintf(w, "  %-38s %14.6g %-9s", m.name, mv.Value, mv.Unit)
			if mv.Samples > 0 {
				fmt.Fprintf(w, " n=%d", mv.Samples)
			}
			fmt.Fprintln(w)
		}
		if traced {
			fmt.Fprintf(w, "  per-layer (traced run of %d slices, machines stepped serially; kernels in isolation):\n", wr.TracedSlices)
			for _, m := range perLayer {
				mv := wr.PerLayer[m.name]
				fmt.Fprintf(w, "    %-38s %14.6g %s\n", m.name, mv.Value, mv.Unit)
			}
		}
		for _, p := range wr.Problems {
			fmt.Fprintf(w, "  FAILED: %s\n", p)
		}
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// printContractLine ends a contract run with the one JSON object the
// benchmark driver reads.
func printContractLine(w io.Writer, wr *workloadReport, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct: len(wr.Problems) == 0, Attempted: wr.OpsAttempted, Failed: wr.OpsFailed,
		Metrics: map[string]value{},
	}
	if traced {
		for _, m := range perLayer {
			line.Metrics[m.name] = value{wr.PerLayer[m.name].Value, m.unit}
		}
	} else {
		for _, m := range endToEnd {
			if m.seedBound > 0 {
				line.Metrics[m.name] = value{wr.EndToEnd[m.name].Value, m.unit}
			}
		}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", buf)
	return err
}

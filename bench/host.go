package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"cuttlesys/internal/stats"
)

// hostInfo is the fingerprint printed with every report: a wall-clock
// number means nothing without the host and configuration it came from.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"git_commit,omitempty"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       os.Getenv("GOGC"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     gitCommit(),
	}
	if h.GOGC == "" {
		h.GOGC = "100"
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reports the commit the binary was built from when the
// toolchain stamped one, else the checkout's HEAD when run from a git
// work tree, else nothing.
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return ""
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		sha, err := os.ReadFile(".git/" + name)
		if err != nil {
			return ""
		}
		return strings.TrimSpace(string(sha))
	}
	return ref
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// calibSink keeps the calibration loop's result live.
var calibSink float64

// calibrate times a fixed pure-Go loop — floating-point arithmetic
// plus a sweep over 4 MB of memory — and returns the median of five
// runs in milliseconds. Run before and after a measurement set, it
// shows whether the host itself changed speed in between.
func calibrate() float64 {
	buf := make([]float64, 4<<20/8)
	runs := make([]float64, 5)
	for r := range runs {
		t0 := now()
		x := 1.0
		for i := 0; i < 1_500_000; i++ {
			x = x*1.0000001 + math.Sqrt(float64(i&1023))*1e-9
		}
		for pass := 0; pass < 6; pass++ {
			for i := 0; i < len(buf); i += 8 {
				buf[i] += x
			}
		}
		calibSink += x + buf[len(buf)-8]
		runs[r] = millis(since(t0))
	}
	return stats.Percentile(runs, 0.5)
}

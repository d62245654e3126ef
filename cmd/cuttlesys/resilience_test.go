package main

import (
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"cuttlesys"
	"cuttlesys/internal/harness"
)

// byteGateRuns holds the resilience byte gate's runs, by GOMAXPROCS
// setting, until TestResilienceRecordsPinned takes them: one set of 28
// runs per setting feeds both the report bytes and the record digest.
var byteGateRuns = struct {
	sync.Mutex
	runs map[int][]*cuttlesys.Result
}{runs: map[int][]*cuttlesys.Result{}}

// buildResilience is the resilience row's build for the byte gate at
// GOMAXPROCS procs: it hands its runs on to the record digest.
func buildResilience(procs int, p params) (any, error) {
	runs, err := resilienceRuns(p)
	if err != nil {
		return nil, err
	}
	byteGateRuns.Lock()
	byteGateRuns.runs[procs] = runs
	byteGateRuns.Unlock()
	return resilienceSummary(p, runs), nil
}

// takeResilienceRuns returns the runs the byte gate made at GOMAXPROCS
// procs, or, when it did not run first, makes them at that setting
// with the report's reference parameters.
func takeResilienceRuns(t *testing.T, procs int) []*cuttlesys.Result {
	t.Helper()
	byteGateRuns.Lock()
	runs, ok := byteGateRuns.runs[procs]
	delete(byteGateRuns.runs, procs)
	byteGateRuns.Unlock()
	if ok {
		return runs
	}
	r, err := pick("report", reports, func(r report) string { return r.name }, []string{"resilience"})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	runs, err = resilienceRuns(r.defaults)
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// TestResilienceRecordsPinned pins an FNV-1a digest of the slice
// records of the resilience report's 28 runs (seven batteries × four
// policies, report order, reference parameters) at GOMAXPROCS 1 and 8.
// BENCH_resilience.json rounds to four decimals; this digest holds
// every record field to its bits, floats by math.Float64bits, except
// LoadFrac: a recorded label that no scheduler reads, which the
// single-machine harness writes as load·factor and a fleet as
// share ÷ capacity. It digests the byte gate's own runs when
// TestReferenceReportsUnchanged ran first, so it runs wherever that
// gate's resilience row does, -race included.
func TestResilienceRecordsPinned(t *testing.T) {
	if why := gateSkip("resilience"); why != "" {
		t.Skip(why)
	}
	for _, procs := range []int{1, 8} {
		h := fnv.New64a()
		for _, res := range takeResilienceRuns(t, procs) {
			for _, rec := range res.Slices {
				digestRecord(h, rec)
			}
		}
		if got, want := h.Sum64(), uint64(0x11cfb12c07d01430); got != want {
			t.Errorf("GOMAXPROCS=%d: resilience records digest %#016x, pinned %#016x", procs, got, want)
		}
	}
}

// digestRecord folds every field of rec but LoadFrac into h.
func digestRecord(h hash.Hash64, rec harness.SliceRecord) {
	v := reflect.ValueOf(rec)
	for i := 0; i < v.NumField(); i++ {
		if v.Type().Field(i).Name != "LoadFrac" {
			digestValue(h, v.Field(i))
		}
	}
}

func digestValue(h hash.Hash64, v reflect.Value) {
	var b [8]byte
	put := func(x uint64) {
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	switch v.Kind() {
	case reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.Int:
		put(uint64(v.Int()))
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.String:
		put(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Slice:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			digestValue(h, v.Index(i))
		}
	default:
		panic("digest: unhandled kind " + v.Kind().String())
	}
}

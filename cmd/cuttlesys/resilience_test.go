package main

import (
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"cuttlesys/internal/harness"
)

// TestResilienceRecordsPinned pins an FNV-1a digest of the slice
// records of all 28 resilience runs (seven batteries × four policies,
// report order, reference parameters). BENCH_resilience.json rounds to
// four decimals; this digest holds every record field to its bits,
// floats by math.Float64bits, except LoadFrac: a recorded label that
// no scheduler reads, which the single-machine harness writes as
// load·factor and a fleet as share ÷ capacity.
func TestResilienceRecordsPinned(t *testing.T) {
	if testing.Short() || raceEnabled {
		// Under -race the byte gate already reruns these 28 runs.
		t.Skip("28 machine runs in -short or -race mode")
	}
	r, err := pick("report", reports, func(r report) string { return r.name }, []string{"resilience"})
	if err != nil {
		t.Fatal(err)
	}
	p := r.defaults
	h := fnv.New64a()
	for _, battery := range resilienceBatteries {
		for _, policy := range resiliencePolicies {
			p.Policy = policy
			res, err := oneMachine("resilience-"+battery, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range res.Slices {
				digestRecord(h, rec)
			}
		}
	}
	if got, want := h.Sum64(), uint64(0x11cfb12c07d01430); got != want {
		t.Errorf("resilience records digest %#016x, pinned %#016x", got, want)
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

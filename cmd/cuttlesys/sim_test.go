package main

import (
	"bytes"
	"hash/fnv"
	"testing"

	"cuttlesys/internal/scenario"
)

// TestSimStdoutPinned pins an FNV-1a digest of `cuttlesys sim`'s
// stdout: once at the defaults, and once over every listed policy at
// four slices, so each entry of the policy registry is held to its
// bits.
func TestSimStdoutPinned(t *testing.T) {
	sim := func(args ...string) []byte {
		var out bytes.Buffer
		if err := run(append([]string{"sim"}, args...), &out); err != nil {
			t.Fatalf("sim %v: %v", args, err)
		}
		return out.Bytes()
	}
	digest := func(outs ...[]byte) uint64 {
		h := fnv.New64a()
		for _, b := range outs {
			h.Write(b)
		}
		return h.Sum64()
	}
	if got, want := digest(sim()), uint64(0xdcd3bd9374f57c2b); got != want {
		t.Errorf("default sim stdout digest %#016x, pinned %#016x", got, want)
	}
	var outs [][]byte
	for _, def := range scenario.Schedulers {
		outs = append(outs, sim("-policy", def.Name, "-slices", "4"))
	}
	if got, want := digest(outs...), uint64(0xc567469dc08ce01e); got != want {
		t.Errorf("every-policy sim stdout digest %#016x, pinned %#016x", got, want)
	}
}

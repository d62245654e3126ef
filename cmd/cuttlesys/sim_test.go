package main

import (
	"bytes"
	"testing"

	"cuttlesys/internal/pin"
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
	h := pin.New()
	h.Write(sim())
	pin.Check(t, "sim-default", h.Sum64())
	h = pin.New()
	for _, def := range scenario.Schedulers {
		h.Write(sim("-policy", def.Name, "-slices", "4"))
	}
	pin.Check(t, "sim-every-policy", h.Sum64())
}

package scenario

import (
	"bytes"
	"math"
	"testing"

	"cuttlesys/specs"
)

// FuzzParse feeds hostile spec text to the parser, seeded with the
// embedded library. Parse must never panic; whatever it accepts must
// round-trip through Format to a fixed point; and a compiled spec must
// be a pure function of the spec bytes and the seed — two compiles of
// the same bytes at seed 1 agree on hash, geometry and every client's
// mean load. Specs above 64 machines or 400 slices skip the compile so
// each execution stays cheap.
//
//	go test ./internal/scenario -run '^$' -fuzz FuzzParse -fuzztime 60s
func FuzzParse(f *testing.F) {
	for _, name := range specs.Names() {
		src, err := specs.Source(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		canon := Format(s)
		s2, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(Format(s)) failed: %v\n%s", err, canon)
		}
		if again := Format(s2); !bytes.Equal(again, canon) {
			t.Fatalf("Format is not a fixed point under Parse:\n--- first ---\n%s--- second ---\n%s", canon, again)
		}

		if s.Machines > 64 || s.Slices > 400 {
			return
		}
		compile := func() (*Compiled, error) {
			s, err := Parse(data)
			if err != nil {
				t.Fatalf("second Parse of accepted bytes failed: %v", err)
			}
			return Compile(s, Options{Seed: 1, FS: specs.FS})
		}
		a, errA := compile()
		b, errB := compile()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("Compile errors differ across runs: %v vs %v", errA, errB)
		}
		if errA != nil {
			return
		}
		if a.Hash != b.Hash || a.Machines != b.Machines || a.Slices != b.Slices || len(a.Clients) != len(b.Clients) {
			t.Fatalf("compiled geometry differs: hash %#x/%#x machines %d/%d slices %d/%d clients %d/%d",
				a.Hash, b.Hash, a.Machines, b.Machines, a.Slices, b.Slices, len(a.Clients), len(b.Clients))
		}
		for i := range a.Clients {
			if math.Float64bits(a.Clients[i].MeanFrac) != math.Float64bits(b.Clients[i].MeanFrac) {
				t.Fatalf("client %s mean load differs: %v vs %v", a.Clients[i].Name, a.Clients[i].MeanFrac, b.Clients[i].MeanFrac)
			}
		}
	})
}

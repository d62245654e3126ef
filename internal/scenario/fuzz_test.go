package scenario

import (
	"bytes"
	"io/fs"
	"math"
	"testing"

	"cuttlesys/internal/harness"
	"cuttlesys/specs"
)

// FuzzParse feeds hostile spec text to the parser, seeded with the
// embedded library, the benchmark's specs and goldenInput. Parse must never panic; whatever it accepts must
// round-trip through Format to a fixed point; and a compiled spec must
// be a pure function of the spec bytes and the seed — two compiles of
// the same bytes at seed 1 agree on hash, geometry and every client's
// mean load. Specs above 64 machines or 400 slices skip the compile so
// each execution stays cheap.
//
//	go test ./internal/scenario -run '^$' -fuzz FuzzParse -fuzztime 60s
func FuzzParse(f *testing.F) {
	_, srcs := canonicalSources(f)
	for _, src := range srcs {
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

// FuzzParseTrace feeds hostile CSV to the trace reader, seeded with the
// embedded traces and the hand-written edge cases of the trace tests.
// ParseTrace must never panic; every row it accepts must carry a finite,
// non-negative timestamp and rate, in timestamp order; and resampling
// each accepted client onto 8 decision quanta must yield finite,
// non-negative rates no higher than that client's peak (within the
// rounding of the time-weighted mean).
//
//	go test ./internal/scenario -run '^$' -fuzz FuzzParseTrace -fuzztime 60s
func FuzzParseTrace(f *testing.F) {
	traces, err := fs.Glob(specs.FS, "traces/*.csv")
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range traces {
		data, err := fs.ReadFile(specs.FS, name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, src := range []string{
		sampleTrace,
		"",
		"\n  \n\n",
		"0,web,100\n",
		"timestamp,client,qps\n0.4,web,250\n",
		"0,web,100\n0.5,web,200\n0.5,web,400\n",
		"0,web,100\n0.6,web,300\n",
		"0,web,-1\n",
		"0,web,fast\n1,web,10\n",
		"0,web\n",
	} {
		f.Add([]byte(src))
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := ParseTrace(data)
		if err != nil {
			return
		}
		for i, r := range rows {
			if !finite(r.T) || r.T < 0 || !finite(r.QPS) || r.QPS < 0 {
				t.Fatalf("row %d accepted with T %v, QPS %v", i, r.T, r.QPS)
			}
			if i > 0 && r.T < rows[i-1].T {
				t.Fatalf("rows out of order: %v after %v", r.T, rows[i-1].T)
			}
		}
		for _, client := range traceClients(rows) {
			peak := tracePeak(rows, client)
			means, err := resampleTrace(rows, client, 8, harness.SliceDur)
			if err != nil {
				t.Fatalf("client %q: %v", client, err)
			}
			for k, v := range means {
				if !finite(v) || v < 0 || v > peak*(1+1e-12) {
					t.Fatalf("client %q quantum %d: rate %v (peak %v)", client, k, v, peak)
				}
			}
		}
	})
}

package sgd

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"cuttlesys/internal/cpuid"
)

// quadSurfaces builds four matrices of the runtime's shape: thr and
// pwr share 16 training rows and 16 sparse running rows (pwr adds two
// service rows of its own); lat and svc share 12 training rows and one
// sparse service row, row 12.
func quadSurfaces(seed uint64) [4]*Matrix {
	thr, pwr := matchedPair(seed, 32, 108, 16, 6, 2)
	lat, svc := matchedPair(seed+100, 13, 108, 12, 5, 0)
	return [4]*Matrix{thr, pwr, lat, svc}
}

// setCell observes (or, with on false, clears) cell (i, j) in every
// matrix of ms.
func setCell(on bool, i, j int, ms ...*Matrix) {
	for _, m := range ms {
		if on {
			m.Observe(i, j, 1.5)
		} else {
			m.clear(i, j)
		}
	}
}

// keepCells clears row i of every matrix down to its first keep cells
// of the first matrix's pattern.
func keepCells(i, keep int, ms ...*Matrix) {
	for _, j := range rowObs(ms[0], i)[keep:] {
		setCell(false, i, j, ms...)
	}
}

// TestReconstructQuadBitIdentical drives the four-lane trainer through
// every way the four-lane prefix can end — and every way it can fail
// to start — and demands exact float64 equality with four independent
// serial reconstructions, with factor capture on and off, on one core
// and on four, on every lane path the host can take (lanePaths).
func TestReconstructQuadBitIdentical(t *testing.T) {
	type quadCase struct {
		name string
		ms   [4]*Matrix
		ps   [4]Params
		// Expected lanePrefix of all four lanes, of thr/pwr and of
		// lat/svc, asserted where the kernels run.
		n4, nA, nB int
	}
	rt := Params{Factors: 6, Reg: 0.03, MaxIter: 50}
	frozen := rt
	frozen.FactorMinObs = 4
	all := func(p Params) [4]Params { return [4]Params{p, p, p, p} }
	mk := func(name string, seed uint64, ps [4]Params, edit func(c *quadCase)) quadCase {
		c := quadCase{name: name, ms: quadSurfaces(seed), ps: ps}
		edit(&c)
		return c
	}
	const train = 12 * 108 // the training rows all four lanes have in full

	cases := []quadCase{
		mk("prefix ends at a row boundary", 61, all(rt), func(c *quadCase) {
			// The service row starts right of column 0, where thr's
			// thirteenth training row starts.
			setCell(false, 12, 0, c.ms[2], c.ms[3])
			c.n4, c.nA, c.nB = train, c.ms[0].knownCount(), c.ms[2].knownCount()
		}),
		mk("prefix ends mid-row", 62, all(rt), func(c *quadCase) {
			// The service row's first cells are columns 0 and 1, then
			// a gap: two cells of row 12 still ride the wide kernel.
			setCell(true, 12, 0, c.ms[2], c.ms[3])
			setCell(true, 12, 1, c.ms[2], c.ms[3])
			setCell(false, 12, 2, c.ms[2], c.ms[3])
			c.n4, c.nA, c.nB = train+2, c.ms[0].knownCount(), c.ms[2].knownCount()
		}),
		mk("frozen row inside the prefix", 63, all(frozen), func(c *quadCase) {
			// Row 5 keeps the same two cells in every lane and is
			// bias-frozen in all of them: no kernel may enter it.
			keepCells(5, 2, c.ms[:]...)
			c.n4, c.nA, c.nB = 5*108, 5*108, 5*108
		}),
		mk("row frozen in lat/svc only", 64, [4]Params{rt, rt, frozen, frozen}, func(c *quadCase) {
			// Same cells everywhere, but only the latency pair freezes
			// the row: thr/pwr ride the narrow kernel past it.
			keepCells(5, 2, c.ms[:]...)
			c.n4, c.nA, c.nB = 5*108, c.ms[0].knownCount(), 5*108
		}),
		mk("one pair diverges before the four-lane prefix ends", 65, all(rt), func(c *quadCase) {
			// pwr lost a training cell: the wide kernel and the thr/pwr
			// kernel both stop there, lat/svc carry on alone.
			setCell(false, 3, 40, c.ms[1])
			c.n4, c.nA, c.nB = 3*108+40, 3*108+40, c.ms[2].knownCount()
		}),
		mk("rank 8 lane trains per surface", 66, [4]Params{rt, {Factors: 8, Reg: 0.03, MaxIter: 50}, rt, rt}, func(c *quadCase) {
			c.nB = c.ms[2].knownCount()
		}),
		mk("hundreds of dual thr/pwr cells beside two lat/svc cells", 72, all(rt), func(c *quadCase) {
			// The service row keeps two cells right of column 0: the
			// four-lane prefix is the training rows, then thr/pwr's
			// dual region runs four dense rows and the running rows
			// while lat/svc's holds two cells.
			setCell(false, 12, 0, c.ms[2], c.ms[3])
			keepCells(12, 2, c.ms[2], c.ms[3])
			c.n4, c.nA, c.nB = train, c.ms[0].knownCount(), train+2
			if c.nA-c.n4 < 400 {
				t.Fatalf("thr/pwr dual region %d entries, want hundreds", c.nA-c.n4)
			}
		}),
		mk("no four-lane prefix: each pair trains its prefix dual", 73, all(rt), func(c *quadCase) {
			// lat/svc start at column 1: the four lanes share no entry,
			// so each pair sweeps its whole common prefix in the dual
			// kernel, the two-lane path ReconstructPair takes.
			setCell(false, 0, 0, c.ms[2], c.ms[3])
			c.nA, c.nB = c.ms[0].knownCount(), c.ms[2].knownCount()
		}),
		mk("lat/svc absent", 68, all(rt), func(c *quadCase) {
			c.ms[2], c.ms[3] = nil, nil
			c.nA = c.ms[0].knownCount()
		}),
		mk("empty lane", 69, all(rt), func(c *quadCase) {
			c.ms[3] = NewMatrix(13, 108)
			c.nA = c.ms[0].knownCount()
		}),
	}
	{
		// Warm lat/svc lanes fine-tuning for WarmIters sweeps beside
		// cold thr/pwr lanes: no common sweep count, pairs only.
		c := quadCase{name: "warm pair beside a cold pair", ms: quadSurfaces(70), ps: all(rt)}
		for l := 2; l < 4; l++ {
			_, fac, err := reconstructFactors(c.ms[l], rt)
			if err != nil {
				t.Fatal(err)
			}
			c.ps[l].Warm, c.ps[l].WarmIters = fac, 20
		}
		c.nA, c.nB = c.ms[0].knownCount(), c.ms[2].knownCount()
		cases = append(cases, c)
	}
	{
		// One warm lane: its pair cannot share a stream either.
		c := quadCase{name: "single warm lane", ms: quadSurfaces(71), ps: all(rt)}
		_, fac, err := reconstructFactors(c.ms[0], rt)
		if err != nil {
			t.Fatal(err)
		}
		c.ps[0].Warm, c.ps[0].WarmIters = fac, 20
		c.nB = c.ms[2].knownCount()
		cases = append(cases, c)
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if laneKernelOK {
				// The case must exercise the boundary it names.
				st := gatherLanes(tc.ms[:], tc.ps[:])
				for _, c := range []struct {
					name      string
					got, want int
				}{
					{"four-lane", lanePrefix(st[:]), tc.n4},
					{"thr/pwr", lanePrefix(st[:2]), tc.nA},
					{"lat/svc", lanePrefix(st[2:]), tc.nB},
				} {
					if c.got != c.want {
						t.Fatalf("%s lanePrefix = %d, want %d", c.name, c.got, c.want)
					}
				}
			}
			var want [4]*Prediction
			var wantFac [4]*Factors
			for l, m := range tc.ms {
				if m != nil {
					want[l] = Reconstruct(m, tc.ps[l])
					// A cold model has no factors to capture either way.
					var err error
					if _, wantFac[l], err = reconstructFactors(m, tc.ps[l]); err != nil && !errors.Is(err, ErrColdModel) {
						t.Fatal(err)
					}
				}
			}
			lanePaths(t, func(t *testing.T) {
				for _, procs := range []int{1, 4} {
					for _, capture := range []bool{false, true} {
						prev := runtime.GOMAXPROCS(procs)
						got, gotFac := ReconstructQuad(tc.ms, tc.ps, capture)
						runtime.GOMAXPROCS(prev)
						for l, m := range tc.ms {
							name := fmt.Sprintf("lane %d (GOMAXPROCS %d, capture %v)", l, procs, capture)
							if m == nil {
								if got[l] != nil || gotFac[l] != nil {
									t.Fatalf("%s: absent lane produced a result", name)
								}
								continue
							}
							predBitsEqual(t, name, got[l], want[l])
							switch {
							case !capture || wantFac[l] == nil:
								if gotFac[l] != nil {
									t.Fatalf("%s: unexpected factors", name)
								}
							case gotFac[l] == nil:
								t.Fatalf("%s: no factors captured", name)
							case gotFac[l].Fingerprint() != wantFac[l].Fingerprint():
								t.Fatalf("%s: factors diverge: %x vs %x", name, gotFac[l].Fingerprint(), wantFac[l].Fingerprint())
							}
						}
					}
				}
			})
		})
	}
}

// TestDualScheduleOccupancy pins how full schedule packs the slot
// regions of quadSurfaces by exact entry and slot counts: two cells to
// a slot over the dual regions of the AVX path — thr/pwr's four dense
// rows and sixteen running rows, lat/svc's sparse service row — and
// four over the wide regions of the AVX-512 path, each pair's whole
// common prefix. A slot kernel pays for itself only while most slots
// are full.
func TestDualScheduleOccupancy(t *testing.T) {
	ms := quadSurfaces(1)
	const n4 = 12 * 108 // the service row does not start at column 0
	if ms[2].Known(12, 0) {
		t.Fatal("quadSurfaces(1)'s service row starts at column 0")
	}
	p := Params{Factors: 6, Reg: 0.03, MaxIter: 50}
	st := gatherLanes(ms[:], []Params{p, p, p, p})
	if laneKernelOK && lanePrefix(st[:]) != n4 {
		t.Fatalf("four-lane prefix %d, want %d", lanePrefix(st[:]), n4)
	}
	var entries, slots [wideCells + 1]int // per cells-per-slot k
	for _, c := range []struct {
		name                string
		st                  *trainState
		from, k             int
		wantEnts, wantSlots int
	}{
		{"thr/pwr dual", st[0], n4, 2, 525, 264},
		{"lat/svc dual", st[2], n4, 2, 4, 4},
		{"thr/pwr wide", st[0], 0, wideCells, 1821, 458},
		{"lat/svc wide", st[2], 0, wideCells, 1300, 328},
	} {
		region := c.st.cells[c.from:]
		n := schedule(region, 108, c.k, nil)
		if len(region) != c.wantEnts || n != c.wantSlots {
			t.Errorf("%s: %d entries in %d slots, want %d in %d", c.name, len(region), n, c.wantEnts, c.wantSlots)
		}
		entries[c.k] += len(region)
		slots[c.k] += n
	}
	for _, k := range []int{2, wideCells} {
		if fill := float64(entries[k]) / float64(k*slots[k]); fill < 0.9 {
			t.Fatalf("k=%d: schedule fills %.3f of its slots' cells, want at least 0.9", k, fill)
		}
	}
}

// BenchmarkLaneEpoch times one kernel epoch per leg and reports its
// cost per entry: lanes=4 is the quad kernel over the 12 × 108
// training cells all four surfaces share, wide/train the wide kernel
// over one pair's share of them (the AVX-512 path sweeps them once per
// pair); lanes=2, dual and wide sweep one pair's region of the
// runtime's shape — 16 training rows and 16 running rows of up to 20
// cells — lanes=2 one cell per stream in row-major order (the quad
// kernel with the pair's lanes doubled, the cost of a kernel whose
// upper lanes idle), dual two cells per 256-bit stream and wide four
// per 512-bit stream on the schedule's slots.
func BenchmarkLaneEpoch(b *testing.B) {
	if !laneKernelOK {
		b.Skip("no AVX")
	}
	p := Params{Factors: 6, Reg: 0.03, MaxIter: 300}
	ms := quadSurfaces(81)
	st := gatherLanes(ms[:], []Params{p, p, p, p})
	thr, pwr := matchedPair(82, 32, 108, 16, 20, 2)
	ab := gatherLanes([]*Matrix{thr, pwr}, []Params{p, p})
	pair := []*trainState{ab[0], ab[1], ab[0], ab[1]}
	np := lanePrefix(pair[:2])
	legs := []struct {
		name    string
		lanes   []*trainState
		entries int // the leading entries the leg sweeps
		k       int // cells per slot; 0 for the quad kernel
	}{
		{"lanes=4", st[:], 12 * 108, 0},
		{"wide/train", st[:2], 12 * 108, wideCells},
		{"lanes=2", pair, np, 0},
		{"dual", pair[:2], np, 2},
		{"wide", pair[:2], np, wideCells},
	}
	for _, leg := range legs {
		if leg.k == wideCells && !cpuid.AVX512 {
			continue
		}
		w := laneCount
		if leg.k == wideCells {
			w = 2
		}
		g := newGroup(leg.lanes, leg.entries, w)
		for l, s := range leg.lanes {
			s.place(g.rowP[l:], g.colP[l:], w) // lanes=2 seeds each lane at both its places
			s.init()
		}
		var run laneRun
		if leg.k == 0 {
			run = g.newQuadRun()
		} else {
			run = g.newSlotRun(0, 0, leg.entries)
		}
		b.Run(leg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run.epoch()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*leg.entries), "ns/entry")
		})
	}
}

// reconstructAllocCeiling bounds the bytes one ReconstructQuad call
// allocates at the runtime's single-machine shape, late in a run, per
// lane path, about 10 % over what a call measures: ≈ 264 KB on the
// AVX-512 path, ≈ 253 KB on the AVX path and ≈ 238 KB on the Go path.
// That is the four predictions (≈ 81 KB, which also hold the SVD
// seeds' mean-filled blocks), the entry lists at 12 bytes an entry, a
// pair's values interleaved (≈ 87 KB), the lane blocks that hold every
// factor and bias from seed to render (≈ 30 KB; the AVX path's one
// four-lane set too), the Jacobi rotations (≈ 20 KB) and the kernels'
// runs: the wide slots at 24 bytes a four-cell slot (≈ 22 KB), or the
// AVX path's quad CSR (4 bytes an entry) and dual slots.
var reconstructAllocCeiling = map[string]uint64{"wide": 280 << 10, "avx": 270 << 10, "go": 250 << 10}

// TestReconstructAllocCeiling measures ReconstructQuad's allocation
// per call with runtime.ReadMemStats over repeated calls, on the
// runtime's single-machine surfaces: throughput with 16 training rows
// and 16 dense running rows, power with the same 32 and two service
// rows, latency and service rate with 12 training rows and two sparse
// service rows. The sweep count does not change what a call
// allocates, so a short one keeps the test quick.
func TestReconstructAllocCeiling(t *testing.T) {
	thr, pwr := matchedPair(91, 32, 108, 16, 40, 2)
	lat, svc := matchedPair(92, 14, 108, 12, 4, 0)
	ms := [4]*Matrix{thr, pwr, lat, svc}
	p := Params{Factors: 6, Reg: 0.03, MaxIter: 5}
	ps := [4]Params{p, p, p, p}
	lanePaths(t, func(t *testing.T) {
		ReconstructQuad(ms, ps, false) // warm the runtime's goroutine free lists
		const calls = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			ReconstructQuad(ms, ps, false)
		}
		runtime.ReadMemStats(&after)
		perCall := (after.TotalAlloc - before.TotalAlloc) / calls
		path := "go"
		switch {
		case laneKernelOK && laneWide:
			path = "wide"
		case laneKernelOK:
			path = "avx"
		}
		t.Logf("%d bytes per ReconstructQuad call on the %s path", perCall, path)
		if ceiling := reconstructAllocCeiling[path]; perCall > ceiling {
			t.Fatalf("ReconstructQuad allocates %d bytes per call on the %s path, ceiling %d", perCall, path, ceiling)
		}
	})
}

package sgd

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
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

// TestReconstructQuadBitIdentical drives the four-lane entry point
// through ways each pair's common prefix can end — and ways it can
// fail to start — and demands exact float64 equality with four
// independent serial reconstructions, with factor capture on and off,
// on one core and on four, on the lane path the host takes.
func TestReconstructQuadBitIdentical(t *testing.T) {
	type quadCase struct {
		name string
		ms   [4]*Matrix
		ps   [4]Params
		// Expected lanePrefix of thr/pwr and of lat/svc, asserted where
		// the kernel runs.
		nA, nB int
		// The column window edges each pair's wide schedule must meet
		// (see windowEdges), asserted where the kernels run.
		winA, winB []string
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
			c.nA, c.nB = c.ms[0].knownCount(), c.ms[2].knownCount()
		}),
		mk("prefix ends mid-row", 62, all(rt), func(c *quadCase) {
			// The service row's first cells are columns 0 and 1, then
			// a gap, as in thr's thirteenth row.
			setCell(true, 12, 0, c.ms[2], c.ms[3])
			setCell(true, 12, 1, c.ms[2], c.ms[3])
			setCell(false, 12, 2, c.ms[2], c.ms[3])
			c.nA, c.nB = c.ms[0].knownCount(), c.ms[2].knownCount()
		}),
		mk("frozen row inside the prefix", 63, all(frozen), func(c *quadCase) {
			// Row 5 keeps the same two cells in every lane and is
			// bias-frozen in all of them: the kernel may not enter it.
			keepCells(5, 2, c.ms[:]...)
			c.nA, c.nB = 5*108, 5*108
		}),
		mk("row frozen in lat/svc only", 64, [4]Params{rt, rt, frozen, frozen}, func(c *quadCase) {
			// Same cells everywhere, but only the latency pair freezes
			// the row: thr/pwr ride the kernel past it.
			keepCells(5, 2, c.ms[:]...)
			c.nA, c.nB = c.ms[0].knownCount(), 5*108
		}),
		mk("one pair diverges before the four-lane prefix ends", 65, all(rt), func(c *quadCase) {
			// pwr lost a training cell: thr/pwr's prefix stops there,
			// lat/svc's runs on.
			setCell(false, 3, 40, c.ms[1])
			c.nA, c.nB = 3*108+40, c.ms[2].knownCount()
		}),
		mk("rank 8 lane trains per surface", 66, [4]Params{rt, {Factors: 8, Reg: 0.03, MaxIter: 50}, rt, rt}, func(c *quadCase) {
			c.nB = c.ms[2].knownCount()
		}),
		mk("hundreds of dual thr/pwr cells beside two lat/svc cells", 72, all(rt), func(c *quadCase) {
			// The service row keeps two cells right of column 0:
			// thr/pwr's prefix runs on through four dense rows and the
			// running rows while lat/svc's ends two cells past the
			// training rows.
			setCell(false, 12, 0, c.ms[2], c.ms[3])
			keepCells(12, 2, c.ms[2], c.ms[3])
			c.nA, c.nB = c.ms[0].knownCount(), train+2
		}),
		mk("no four-lane prefix: each pair trains its prefix dual", 73, all(rt), func(c *quadCase) {
			// lat/svc start at column 1: the four lanes share no entry,
			// and each pair still sweeps its whole common prefix.
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
	cases = append(cases,
		mk("window edges in both pairs", 74, all(rt), func(c *quadCase) {
			// The runtime's shape as drawn: each pair's wide region
			// meets the edges of its dense rows, and thr/pwr's also
			// those of its running rows.
			setCell(false, 12, 0, c.ms[2], c.ms[3])
			c.nA, c.nB = c.ms[0].knownCount(), c.ms[2].knownCount()
			c.winA = []string{winRowBreak, winRowsShift, winPadShift, winSparse}
			c.winB = []string{winRowBreak, winRowsShift, winPadShift}
		}),
		mk("window: lat/svc region ends mid-row inside a shift run", 75, all(rt), func(c *quadCase) {
			// lat/svc's rows 8–11 end one column apart, 107 down to
			// 104, and svc lacks (11, 105): lat/svc's region ends at the
			// staircase's last step with its window shifting.
			for r := 9; r < 12; r++ {
				for j := 108 - (r - 8); j < 108; j++ {
					setCell(false, r, j, c.ms[2], c.ms[3])
				}
			}
			setCell(true, 11, 105, c.ms[2])
			c.nA, c.nB = c.ms[0].knownCount(), obsBefore(c.ms[2], 11)+105
			c.winB = []string{winEndShift, winMidRow}
		}),
		mk("window: one-slot lat/svc region", 76, all(rt), func(c *quadCase) {
			// svc lacks (0, 1): lat/svc share one entry, one wide slot.
			setCell(false, 0, 1, c.ms[3])
			c.nA, c.nB = c.ms[0].knownCount(), 1
			c.winB = []string{winOneSlot}
		}),
	)
	{
		// A warm latency lane beside a cold service-rate lane with the
		// same sweep count: lat/svc share the wide kernel, warm factors
		// beside the SVD seed.
		c := quadCase{name: "window: warm lane beside a cold one", ms: quadSurfaces(77), ps: all(rt)}
		setCell(false, 12, 0, c.ms[2], c.ms[3])
		_, fac, err := reconstructFactors(c.ms[2], rt)
		if err != nil {
			t.Fatal(err)
		}
		c.ps[2].Warm, c.ps[2].WarmIters = fac, rt.MaxIter
		c.nA, c.nB = c.ms[0].knownCount(), c.ms[2].knownCount()
		c.winB = []string{winRowsShift, winRowBreak}
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
					{"thr/pwr", lanePrefix(st[:2]), tc.nA},
					{"lat/svc", lanePrefix(st[2:]), tc.nB},
				} {
					if c.got != c.want {
						t.Fatalf("%s lanePrefix = %d, want %d", c.name, c.got, c.want)
					}
				}
				requireEdges(t, "thr/pwr", st[:2], tc.winA)
				requireEdges(t, "lat/svc", st[2:], tc.winB)
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
			lanePath(t, func(t *testing.T) {
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

// TestDualScheduleOccupancy pins how full schedule packs the wide
// regions of quadSurfaces' two pairs — each pair's whole common prefix
// — by exact entry and slot counts. The wide kernel pays for itself
// only while most slots are full.
func TestDualScheduleOccupancy(t *testing.T) {
	ms := quadSurfaces(1)
	p := Params{Factors: 6, Reg: 0.03, MaxIter: 50}
	st := gatherLanes(ms[:], []Params{p, p, p, p})
	entries, slots := 0, 0
	for _, c := range []struct {
		name                string
		st                  *trainState
		wantEnts, wantSlots int
	}{
		{"thr/pwr", st[0], 1821, 458},
		{"lat/svc", st[2], 1300, 328},
	} {
		n := schedule(c.st.cells, 108, nil)
		if len(c.st.cells) != c.wantEnts || n != c.wantSlots {
			t.Errorf("%s: %d entries in %d slots, want %d in %d", c.name, len(c.st.cells), n, c.wantEnts, c.wantSlots)
		}
		entries += len(c.st.cells)
		slots += n
	}
	if fill := float64(entries) / float64(wideCells*slots); fill < 0.9 {
		t.Fatalf("schedule fills %.3f of its slots' cells, want at least 0.9", fill)
	}
}

// BenchmarkLaneEpoch times one wide kernel epoch per leg and reports
// its cost per entry: wide/train over one pair's share of the 12 × 108
// training cells all four surfaces share, wide over one pair's region
// of the runtime's shape — 16 training rows and 16 running rows of up
// to 20 cells — on the schedule's slots. Both also report the share of
// their slots the column window shifts into (window/slot).
func BenchmarkLaneEpoch(b *testing.B) {
	if !laneKernelOK {
		b.Skip("no AVX-512")
	}
	p := Params{Factors: 6, Reg: 0.03, MaxIter: 300}
	ms := quadSurfaces(81)
	st := gatherLanes(ms[:], []Params{p, p, p, p})
	thr, pwr := matchedPair(82, 32, 108, 16, 20, 2)
	pair := gatherLanes([]*Matrix{thr, pwr}, []Params{p, p})
	for _, leg := range []struct {
		name    string
		lanes   []*trainState
		entries int // the leading entries the leg sweeps
	}{
		{"wide/train", st[:2], 12 * 108},
		{"wide", pair, lanePrefix(pair)},
	} {
		g := newGroup(leg.lanes, leg.entries)
		for _, s := range leg.lanes {
			s.init()
		}
		args := g.slotArgs()
		b.Run(leg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				wideEpoch6(&args)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*leg.entries), "ns/entry")
			s := leg.lanes[0]
			idx := slotIndices(s.cells[:leg.entries], s.m.Cols, g.rows, s.pad())
			b.ReportMetric(float64(windowShifts(idx))/float64(len(idx)/slotRecord), "window/slot")
		})
	}
}

// reconstructAllocCeiling bounds the bytes one ReconstructQuad call
// allocates at the runtime's single-machine shape, late in a run, per
// lane path, about 10 % over what a call measures: ≈ 218 KB on the
// AVX-512 path and ≈ 192 KB on the Go path. That is the predictions of
// the matrices' 38 own rows in one array, which is also the SVD seeds'
// scratch (≈ 33 KB, 40 KB as the whole pages a large object takes),
// the entry lists at 12 bytes an entry, a pair's values interleaved
// (≈ 87 KB), the lane blocks that hold every factor and bias from seed
// to render (≈ 30 KB), the Jacobi rotations (≈ 20 KB) and the wide
// kernel's slots at 24 bytes a four-cell slot (≈ 22 KB).
var reconstructAllocCeiling = map[string]uint64{"wide": 240 << 10, "go": 211 << 10}

// TestReconstructAllocCeiling measures ReconstructQuad's allocation
// per call with runtime.ReadMemStats over repeated calls, on the
// runtime's single-machine surfaces: throughput on a block of 16
// training rows with 16 dense running rows, power on its block with
// the same 16 and two service rows, latency and service rate on blocks
// of 12 training rows with two sparse service rows. The sweep count
// does not change what a call allocates, so a short one keeps the
// test quick.
func TestReconstructAllocCeiling(t *testing.T) {
	thr, pwr := matchedPair(91, 32, 108, 16, 40, 2)
	lat, svc := matchedPair(92, 14, 108, 12, 4, 0)
	ms := [4]*Matrix{onBlock(thr, 16), onBlock(pwr, 16), onBlock(lat, 12), onBlock(svc, 12)}
	p := Params{Factors: 6, Reg: 0.03, MaxIter: 5}
	ps := [4]Params{p, p, p, p}
	lanePath(t, func(t *testing.T) {
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
		if laneKernelOK {
			path = "wide"
		}
		t.Logf("%d bytes per ReconstructQuad call on the %s path", perCall, path)
		if ceiling := reconstructAllocCeiling[path]; perCall > ceiling {
			t.Fatalf("ReconstructQuad allocates %d bytes per call on the %s path, ceiling %d", perCall, path, ceiling)
		}
	})
}

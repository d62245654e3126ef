package sgd

import (
	"fmt"
	"math"
	"testing"

	"cuttlesys/internal/rng"
)

// slotSchedule runs schedule over a run of cells and returns its
// slots as indices into the run, in the order the schedule filled
// them. It panics if schedule names a cell other than the entry's.
func slotSchedule(cells []uint32, cols int) [][]int {
	slots := make([][]int, schedule(cells, cols, nil))
	n := schedule(cells, cols, func(s, t, i, j int) {
		if int(cells[t]) != i*cols+j {
			panic(fmt.Sprintf("schedule names entry %d cell (%d,%d), want %d", t, i, j, cells[t]))
		}
		slots[s] = append(slots[s], t)
	})
	if n != len(slots) {
		panic(fmt.Sprintf("schedule counted %d slots, then filled %d", len(slots), n))
	}
	return slots
}

// checkSchedule validates slots of at most wideCells cells against the
// run they schedule: every entry sits in exactly one slot, no slot is
// empty or names one row or one column twice, and each row's and each
// column's entries come in run order.
func checkSchedule(cells []uint32, cols int, slots [][]int) error {
	seen := make([]bool, len(cells))
	lastRow := map[int]int{}
	lastCol := map[int]int{}
	cell := func(t int) (i, j int) { return int(cells[t]) / cols, int(cells[t]) % cols }
	for s, sl := range slots {
		if len(sl) == 0 || len(sl) > wideCells {
			return fmt.Errorf("slot %d holds %d cells, want 1..%d", s, len(sl), wideCells)
		}
		for x, a := range sl {
			for _, b := range sl[x+1:] {
				ai, aj := cell(a)
				bi, bj := cell(b)
				if ai == bi || aj == bj {
					return fmt.Errorf("slot %d pairs cells (%d,%d) and (%d,%d)", s, ai, aj, bi, bj)
				}
			}
		}
		for _, t := range sl {
			if seen[t] {
				return fmt.Errorf("slot %d: entry %d placed twice", s, t)
			}
			seen[t] = true
			i, j := cell(t)
			if p, ok := lastRow[i]; ok && p > t {
				return fmt.Errorf("slot %d: row %d trains entry %d after entry %d", s, i, t, p)
			}
			if p, ok := lastCol[j]; ok && p > t {
				return fmt.Errorf("slot %d: column %d trains entry %d after entry %d", s, j, t, p)
			}
			lastRow[i], lastCol[j] = t, t
		}
	}
	for t, ok := range seen {
		if !ok {
			return fmt.Errorf("entry %d in no slot", t)
		}
	}
	return nil
}

// trainSlots is the scalar slot executor: per epoch, entries before
// the region train in order, the region's slots one after another —
// each slot's cells last to first, so a slot whose cells were not
// independent changes the result — and then the entries after it.
func trainSlots(st *trainState, from, to int, slots [][]int) {
	for iter := 0; iter < st.p.MaxIter; iter++ {
		st.sweep(0, from)
		for _, sl := range slots {
			for x := len(sl) - 1; x >= 0; x-- {
				st.sweep(from+sl[x], from+sl[x]+1)
			}
		}
		st.sweep(to, len(st.cells))
	}
}

// seeded gathers m and seeds its model state in one-lane blocks of its
// own, untrained.
func seeded(m *Matrix, p Params) *trainState {
	st := prepareTraining(m, p.withDefaults(), nil, 0, nil)
	st.alone()
	st.init()
	return st
}

// stateBits returns the bits of every trained float64 of a lane that
// trains alone: each row's and each column's factors and bias.
func stateBits(st *trainState) []uint64 {
	var out []uint64
	for _, blocks := range [][]float64{st.rowP[:st.m.Rows*st.blk], st.colP[:st.m.Cols*st.blk]} {
		for _, x := range blocks {
			out = append(out, math.Float64bits(x))
		}
	}
	return out
}

func sameBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// scheduleMatrix builds a random matrix: dense fully observed leading
// rows, then sparse rows with counts[r] scattered cells each (fewer
// than FactorMinObs freezes a row).
func scheduleMatrix(r *rng.RNG, cols, dense int, counts []int) *Matrix {
	m := NewMatrix(dense+len(counts), cols)
	for i := 0; i < dense; i++ {
		for j := 0; j < cols; j++ {
			m.Observe(i, j, 0.5+2*r.Float64())
		}
	}
	for k, n := range counts {
		for c := 0; c < n; c++ {
			m.Observe(dense+k, r.Intn(cols), 0.5+2*r.Float64())
		}
	}
	return m
}

var scheduleParams = Params{Factors: 6, Reg: 0.03, MaxIter: 6, FactorMinObs: 4}

// frozenFrom returns the end of the kernel-eligible stretch starting
// at from: the first entry at or after it in a bias-frozen row.
func frozenFrom(st *trainState, from int) int {
	for t := from; t < len(st.cells); t++ {
		if st.biasOnly[int(st.cells[t])/st.m.Cols] {
			return t
		}
	}
	return len(st.cells)
}

// TestSlotScheduleMatchesSerial is the schedule's oracle: over random
// matrices and regions — and four named shapes, a region starting
// mid-row, one spanning an odd number of running rows, a one-entry
// region and one ending at a bias-frozen row — schedule's slots of
// four cells (the subtest names the width) must pass checkSchedule,
// and the scalar slot executor must leave Q, P and both biases
// bit-identical to trainSerial.
func TestSlotScheduleMatchesSerial(t *testing.T) {
	type scheduleCase struct {
		name     string
		m        *Matrix
		from, to int
		check    func(t *testing.T, st *trainState, slots [][]int)
	}
	r := rng.New(5)
	cols := 40
	cases := []scheduleCase{
		{name: "starts mid-row", m: scheduleMatrix(r, cols, 4, []int{9, 7, 12}), from: 2*cols + 13, to: -1},
		{name: "odd number of running rows", m: scheduleMatrix(r, cols, 3, []int{8, 5, 11, 6, 9}), from: 2 * cols, to: -1,
			check: func(t *testing.T, st *trainState, _ [][]int) {
				first, last := int(st.cells[3*cols])/cols, int(st.cells[len(st.cells)-1])/cols
				if first != 3 || last != 7 {
					t.Fatalf("region rows %d..%d, want the five running rows 3..7 after the dense tail", first, last)
				}
			}},
		{name: "one entry", m: scheduleMatrix(r, cols, 3, []int{6}), from: 2*cols + 17, to: 2*cols + 18,
			check: func(t *testing.T, _ *trainState, slots [][]int) {
				if len(slots) != 1 || len(slots[0]) != 1 || slots[0][0] != 0 {
					t.Fatalf("slots %v, want one slot of one cell", slots)
				}
			}},
		{name: "ends at a bias-frozen row", m: scheduleMatrix(r, cols, 3, []int{7, 9, 2, 8}), from: cols + 3, to: -1,
			check: func(t *testing.T, st *trainState, _ [][]int) {
				end := frozenFrom(st, cols+3)
				if end == len(st.cells) || int(st.cells[end])/cols != 5 {
					t.Fatalf("region ends at entry %d, want the frozen row 5's first", end)
				}
			}},
	}
	for trial := 0; trial < 40; trial++ {
		counts := make([]int, r.Intn(8))
		for k := range counts {
			counts[k] = r.Intn(14)
		}
		m := scheduleMatrix(r, 8+r.Intn(100), 1+r.Intn(5), counts)
		from := r.Intn(m.knownCount())
		cases = append(cases, scheduleCase{name: fmt.Sprintf("random %d", trial), m: m, from: from, to: -1})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Run(fmt.Sprintf("k=%d", wideCells), func(t *testing.T) {
				want := seeded(tc.m, scheduleParams)
				got := seeded(tc.m, scheduleParams)
				from, to := tc.from, tc.to
				if to < 0 {
					to = frozenFrom(got, from)
				}
				if from >= to {
					t.Skipf("no kernel-eligible entries at %d", from)
				}
				slots := slotSchedule(got.cells[from:to], tc.m.Cols)
				if err := checkSchedule(got.cells[from:to], tc.m.Cols, slots); err != nil {
					t.Fatal(err)
				}
				if tc.check != nil {
					tc.check(t, got, slots)
				}
				want.trainSerial()
				trainSlots(got, from, to, slots)
				if !sameBits(stateBits(got), stateBits(want)) {
					t.Fatalf("slot executor diverges from trainSerial over region [%d, %d)", from, to)
				}
			})
		})
	}
}

// TestScheduleOracleCatchesSwap checks the oracle has teeth: a
// schedule with two entries of one column swapped between their slots
// must fail checkSchedule and change the trained bits.
func TestScheduleOracleCatchesSwap(t *testing.T) {
	m := scheduleMatrix(rng.New(9), 30, 4, []int{8, 9, 7})
	want := seeded(m, scheduleParams)
	got := seeded(m, scheduleParams)
	from, to := 30, frozenFrom(got, 30)
	cells := got.cells[from:to]
	slots := slotSchedule(cells, m.Cols)
	// Entry 0 (row 1, column 0) and its column successor, row 2's
	// column 0, sit in different slots; trade their places.
	succ := -1
	for u := 1; u < len(cells); u++ {
		if int(cells[u])%m.Cols == int(cells[0])%m.Cols {
			succ = u
			break
		}
	}
	for _, sl := range slots {
		for h, x := range sl {
			switch x {
			case 0:
				sl[h] = succ
			case succ:
				sl[h] = 0
			}
		}
	}
	if err := checkSchedule(cells, m.Cols, slots); err == nil {
		t.Fatal("checkSchedule accepted a schedule with a column's entries swapped")
	}
	want.trainSerial()
	trainSlots(got, from, to, slots)
	if sameBits(stateBits(got), stateBits(want)) {
		t.Fatal("swapping a column's entries left the trained bits unchanged")
	}
}

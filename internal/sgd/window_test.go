package sgd

import "testing"

// The wide kernel's column window (pair_amd64.s, wideEpoch6) holds a
// slot's four columns in registers and shifts them up one part where
// the next slot's columns 1–3 are this slot's columns 0–2; anywhere
// else it stores them back and gathers afresh. These helpers replay
// that test on the slot indices slotArgs lays out, so the tables can
// demand the window edges they name and a schedule change cannot
// switch the window off unnoticed.

// slotRecord is the uint16 count of one wide slot's indices: four rows,
// four columns, four entries.
const slotRecord = 3 * wideCells

// windowShift reports whether wideEpoch6 shifts its window into slot s
// of the wide slot indices idx.
func windowShift(idx []uint16, s int) bool {
	if s == 0 {
		return false
	}
	prev, cur := idx[(s-1)*slotRecord+wideCells:], idx[s*slotRecord+wideCells:]
	return cur[1] == prev[0] && cur[2] == prev[1] && cur[3] == prev[2]
}

// windowShifts counts the slots of idx the window shifts into.
func windowShifts(idx []uint16) int {
	n := 0
	for s := range len(idx) / slotRecord {
		if windowShift(idx, s) {
			n++
		}
	}
	return n
}

// wideIndices returns the wide kernel's slot indices over the common
// prefix of pair st, as slotArgs lays them out, and nil where the pair
// does not share a stream.
func wideIndices(st []*trainState) []uint16 {
	n := lanePrefix(st)
	if n == 0 {
		return nil
	}
	rows := max(st[0].m.Rows, st[1].m.Rows)
	return slotIndices(st[0].cells[:n], st[0].m.Cols, rows, st[0].pad())
}

// The window edges a bit-identity case can name.
const (
	winRowBreak  = "a shift run broken where the rows change"
	winSparse    = "a shift run broken at a sparse running row"
	winEndShift  = "the region ends inside a shift run"
	winMidRow    = "the region ends mid-row"
	winOneSlot   = "a one-slot region"
	winPadShift  = "padding cells inside a shifted run"
	winRowsShift = "a shift across a row change"
)

// windowEdges returns the window edges the wide kernel meets over pair
// st's common prefix. A sparse row is one lane A has not observed in
// full.
func windowEdges(st []*trainState) map[string]bool {
	idx := wideIndices(st)
	edges := map[string]bool{}
	if idx == nil {
		return edges
	}
	a, cols := st[0], st[0].m.Cols
	count := make([]int, a.m.Rows+1) // the spare row counts as dense
	count[a.m.Rows] = cols
	for _, c := range a.cells {
		count[int(c)/cols]++
	}
	nslots := len(idx) / slotRecord
	slot := func(s int) []uint16 { return idx[s*slotRecord : (s+1)*slotRecord] }
	sameRows := func(s int) bool {
		for c := 0; c < wideCells; c++ {
			if slot(s)[c] != slot(s - 1)[c] {
				return false
			}
		}
		return true
	}
	for s := 1; s < nslots; s++ {
		shift, prevShift := windowShift(idx, s), windowShift(idx, s-1)
		switch {
		case shift && !sameRows(s):
			edges[winRowsShift] = true
		case !shift && prevShift && !sameRows(s):
			edges[winRowBreak] = true
		}
		if shift {
			for c := 0; c < wideCells; c++ {
				if slot(s)[wideCells+c] == uint16(cols) {
					edges[winPadShift] = true
				}
			}
		}
		if !shift && prevShift {
			for c := 0; c < wideCells; c++ {
				if count[slot(s)[c]] < cols {
					edges[winSparse] = true
				}
			}
		}
	}
	if nslots == 1 {
		edges[winOneSlot] = true
	}
	if windowShift(idx, nslots-1) {
		edges[winEndShift] = true
	}
	if n := lanePrefix(st); n < len(a.cells) && int(a.cells[n-1])/cols == int(a.cells[n])/cols {
		edges[winMidRow] = true
	}
	return edges
}

// requireEdges fails t unless pair st meets every window edge in want.
// It asserts nothing where no kernel is built: lanePrefix is 0 there.
func requireEdges(t *testing.T, name string, st []*trainState, want []string) {
	t.Helper()
	if !laneKernelOK || len(want) == 0 {
		return
	}
	got := windowEdges(st)
	for _, e := range want {
		if !got[e] {
			t.Fatalf("%s: no %s in the wide schedule (edges met: %v)", name, e, got)
		}
	}
}

// TestWindowShiftShare pins that the wavefront keeps the column window
// shifting: over a dense 12 × 108 region — the training rows every
// surface has in full — at least 95 % of the wide kernel's slots must
// take the shift path. It also reports the share over quadSurfaces'
// two pairs, whose running rows shift less.
func TestWindowShiftShare(t *testing.T) {
	m := NewMatrix(12, 108)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			m.Observe(i, j, 1+float64((i*m.Cols+j)%7))
		}
	}
	st := prepareTraining(m, Params{}.withDefaults(), nil, 0, nil)
	idx := slotIndices(st.cells, m.Cols, m.Rows, st.pad())
	nslots := len(idx) / slotRecord
	share := float64(windowShifts(idx)) / float64(nslots)
	t.Logf("dense 12×108: %d of %d slots shift (%.3f)", windowShifts(idx), nslots, share)
	if share < 0.95 {
		t.Fatalf("the window shifts into %.3f of a dense region's slots, want at least 0.95", share)
	}

	if !laneKernelOK {
		return
	}
	ms := quadSurfaces(1)
	p := Params{Factors: 6, Reg: 0.03, MaxIter: 50}
	lanes := gatherLanes(ms[:], []Params{p, p, p, p})
	for l, name := range []string{"thr/pwr", "lat/svc"} {
		idx := wideIndices(lanes[2*l : 2*l+2])
		t.Logf("%s: %d of %d slots shift", name, windowShifts(idx), len(idx)/slotRecord)
	}
}

// Lane reconstruction: independent SGD problems trained in lockstep,
// one per SIMD lane.
//
// The four reconstruction surfaces (throughput, power, latency,
// service-rate) are trained every decision quantum with identical
// hyperparameters over matrices of the same width (the 108 resource
// configurations). Each SGD update chain is serially dependent —
// entry t+1 reads the factors entry t wrote — so a single surface
// cannot be vectorised without changing its result. *Different*
// surfaces, however, share no state at all: packing one surface per
// lane of a VEX register runs all their update chains at once. Packed
// IEEE-754 arithmetic is element-wise exact, so each lane computes
// bit-for-bit what its own serial sweep would have, and the result is
// byte-identical to independent Reconstruct calls.
//
// Lanes can share an instruction stream only while they visit the same
// cell. That one rule (lanePrefix) is applied at width four, then two,
// then one: the 256-bit kernel sweeps the longest common prefix of all
// four row-major entry sequences — the offline training rows every
// surface has in full — then each pair (throughput/power,
// latency/service-rate) continues through the 128-bit kernel on its own
// longer common prefix, which, because the runtime writes both matrices
// of a pair at the same cells, reaches through the running rows too.
// Whatever follows in a lane trains in scalar Go after the kernels, in
// the same row-major order, against the same interleaved state.
package sgd

import "cuttlesys/internal/par"

// laneArgs is the argument block for the assembly kernels. Field
// offsets are hard-coded in pair_amd64.s — do not reorder. The 128-bit
// kernel reads the first two elements of mu, eta and lam.
type laneArgs struct {
	row, col, vals *float64 // first row's block, column blocks, the run's values
	offs           *uint32  // per entry: byte offset of its column block
	rowPtr         *int32   // CSR row starts into offs/vals; nrows+1 of them
	nrows          int64
	mu, eta, lam   [laneCount]float64
}

// laneCount is the number of lanes a block interleaves: the four
// float64s of a 256-bit register.
const laneCount = 4

// pairFactors is the kernels' fixed latent rank: the assembly unrolls
// exactly six factor updates per entry, matching the runtime's
// Factors=6 default.
const pairFactors = 6

// laneBlock is the length in float64s of one interleaved row or column
// block: six factor quads then the bias quad, element e of lane L at
// index 4e+L. Rows and columns keep factors and bias in one block so
// the kernels reach both through a single pointer. Two-lane training
// uses the same blocks with lanes 2 and 3 idle.
const laneBlock = laneCount * (pairFactors + 1)

// ReconstructQuad reconstructs the surfaces of one decision — up to
// four independent observation matrices, nil for an absent one —
// training them in SIMD lanes as far as they qualify (see lanePrefix).
// Results are bit-identical to calling Reconstruct on each matrix
// separately, whether or not a kernel ran. With capture the
// trained factor sets come back too, the analogue of
// ReconstructFactors: untrained (cold) models yield nil factors
// instead of an error.
func ReconstructQuad(ms [4]*Matrix, ps [4]Params, capture bool) (preds [4]*Prediction, facs [4]*Factors) {
	p, f := reconstructLanes(ms[:], ps[:], capture)
	copy(preds[:], p)
	copy(facs[:], f)
	return preds, facs
}

// ReconstructPair is the two-lane case of ReconstructQuad.
func ReconstructPair(a, b *Matrix, pa, pb Params) (*Prediction, *Prediction) {
	p, _ := reconstructLanes([]*Matrix{a, b}, []Params{pa, pb}, false)
	return p[0], p[1]
}

// ReconstructPairFactors is ReconstructPair with factor capture.
func ReconstructPairFactors(a, b *Matrix, pa, pb Params) (*Prediction, *Prediction, *Factors, *Factors) {
	p, f := reconstructLanes([]*Matrix{a, b}, []Params{pa, pb}, true)
	return p[0], p[1], f[0], f[1]
}

// reconstructLanes runs the lanes' reconstructions around one shared
// sweep. Initialisation (the SVD seeds) and the dense renders are
// independent per lane and run concurrently through par.For, each lane
// writing only its own pre-sized cell; absent lanes are skipped.
func reconstructLanes(ms []*Matrix, ps []Params, capture bool) ([]*Prediction, []*Factors) {
	st := make([]*trainState, len(ms))
	par.For(len(ms), 0, func(_, l int) {
		if ms[l] != nil {
			st[l] = prepareTraining(ms[l], ps[l].withDefaults())
		}
	})
	trainLanes(st)
	preds := make([]*Prediction, len(ms))
	facs := make([]*Factors, len(ms))
	par.For(len(st), 0, func(_, l int) {
		if st[l] != nil {
			preds[l], facs[l] = st[l].finish(capture)
		}
	})
	return preds, facs
}

// trainLanes trains four or two prepared lanes (nil for an absent
// one). Lanes with a common prefix share blocks and an instruction
// stream; four lanes without one are two independent pairs, which
// train concurrently on blocks of their own; two lanes without one
// train per surface.
func trainLanes(st []*trainState) {
	if n := lanePrefix(st); n > 0 {
		trainShared(st, n)
		return
	}
	if len(st) == laneCount {
		par.For(2, 0, func(_, h int) { trainLanes(st[2*h : 2*h+2]) })
		return
	}
	for _, s := range st {
		if s != nil {
			s.trainSerial()
		}
	}
}

// lanePrefix returns how many leading entries of the prepared
// reconstructions a SIMD kernel may sweep in lockstep, 0 when they
// cannot share a stream. The lanes must agree on everything the shared
// instruction stream fixes: column count (the interleaved column
// blocks), the kernels' rank and the sweep count.
// Within that, the prefix runs while every lane's row-major entry list
// names the same cell, and stops at the first bias-frozen row: the
// kernels apply factor updates unconditionally.
func lanePrefix(st []*trainState) int {
	if !laneKernelOK {
		return 0
	}
	s0 := st[0]
	for _, s := range st {
		// An absent lane is nil; an empty one was never initialised
		// and has f == 0.
		if s == nil || s.f != pairFactors || s.m.Cols != s0.m.Cols {
			return 0
		}
		if s.p.MaxIter != s0.p.MaxIter || s.p.MaxIter <= 0 {
			return 0
		}
	}
	for n := 0; ; n++ {
		for _, s := range st {
			if n == len(s.entries) {
				return n
			}
			e, e0 := s.entries[n], s0.entries[n]
			if e.i != e0.i || e.j != e0.j || s.biasOnly[e.i] {
				return n
			}
		}
	}
}

// trainShared runs the lockstep sweep over lanes whose first n entries
// coincide: per epoch, the kernel of the lanes' full width covers the
// n-entry common prefix; of four lanes, each pair then rides the
// 128-bit kernel to the end of its own common prefix; then each lane's
// remaining entries train scalar. All row and column state lives
// interleaved for the whole run, so a prefix ending mid-row hands the
// row on with nothing to copy. Each lane's per-epoch update order is
// exactly trainSerial's — the kernel runs are the head of its
// row-major entry list, the tail the rest — so every float64 it
// produces is bit-identical to the serial sweep.
func trainShared(st []*trainState, n int) {
	rows := 0
	for _, s := range st {
		rows = max(rows, s.m.Rows)
	}
	rowP := make([]float64, rows*laneBlock)
	colP := make([]float64, st[0].m.Cols*laneBlock)
	for l, s := range st {
		packLane(rowP, l, s.q, s.rowBias)
		packLane(colP, l, s.pc, s.colBias)
	}

	runs := []laneRun{newLaneRun(st, 0, 0, n, rowP, colP)}
	var tail [laneCount]int // per lane: where its scalar tail starts
	for l := range st {
		tail[l] = n
	}
	if len(st) == laneCount {
		for l := 0; l < laneCount; l += 2 {
			if np := lanePrefix(st[l : l+2]); np > n {
				runs = append(runs, newLaneRun(st[l:l+2], l, n, np, rowP, colP))
				tail[l], tail[l+1] = np, np
			}
		}
	}

	for iter := 0; iter < st[0].p.MaxIter; iter++ {
		for i := range runs {
			runs[i].epoch()
		}
		for l, s := range st {
			laneTailEpoch(s.entries[tail[l]:], l, s, rowP, colP)
		}
	}

	for l, s := range st {
		unpackLane(rowP, l, s.q, s.rowBias)
		unpackLane(colP, l, s.pc, s.colBias)
	}
}

// laneRun is one kernel's share of an epoch: a run of consecutive
// entries common to two or four adjacent lanes, in CSR form — row
// starts, and per entry the column block's byte offset and the lanes'
// values.
type laneRun struct {
	args  laneArgs
	width int
}

// newLaneRun lays out entries [from, to) of the lanes st, which occupy
// lanes lane0.. of the blocks. The run may start and end mid-row: its
// first row block is that of entry from, and rowPtr counts only the
// run's own entries.
func newLaneRun(st []*trainState, lane0, from, to int, rowP, colP []float64) laneRun {
	w := len(st)
	ents := st[0].entries[from:to]
	first := int(ents[0].i)
	nrows := int(ents[len(ents)-1].i) - first + 1
	rowPtr := make([]int32, nrows+1)
	offs := make([]uint32, len(ents))
	vals := make([]float64, w*len(ents))
	for t, e := range ents {
		rowPtr[int(e.i)-first+1]++
		offs[t] = uint32(int(e.j) * laneBlock * 8)
		for l, s := range st {
			vals[w*t+l] = s.entries[from+t].v
		}
	}
	for r := 0; r < nrows; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	run := laneRun{width: w, args: laneArgs{
		row: &rowP[first*laneBlock+lane0], col: &colP[lane0],
		vals: &vals[0], offs: &offs[0], rowPtr: &rowPtr[0],
		nrows: int64(nrows),
	}}
	for l, s := range st {
		run.args.mu[l], run.args.eta[l], run.args.lam[l] = s.mu, learningRate, s.p.Reg
	}
	return run
}

func (r *laneRun) epoch() {
	if r.width == laneCount {
		quadEpoch6(&r.args)
	} else {
		pairEpoch6(&r.args)
	}
}

// packLane copies one lane's factor matrix and bias vector into the
// interleaved blocks; unpackLane copies them back out.
func packLane(blocks []float64, lane int, fac, bias []float64) {
	const f = pairFactors
	for e, b := range bias {
		blk := blocks[e*laneBlock+lane:]
		for k := 0; k < f; k++ {
			blk[laneCount*k] = fac[e*f+k]
		}
		blk[laneCount*f] = b
	}
}

func unpackLane(blocks []float64, lane int, fac, bias []float64) {
	const f = pairFactors
	for e := range bias {
		blk := blocks[e*laneBlock+lane:]
		for k := 0; k < f; k++ {
			fac[e*f+k] = blk[laneCount*k]
		}
		bias[e] = blk[laneCount*f]
	}
}

// laneTailEpoch sweeps one lane's post-kernel entries once against the
// interleaved state. The arithmetic matches trainSerial statement for
// statement — same association, same old-value capture — so the tail
// is bit-identical to the serial sweep too.
func laneTailEpoch(tail []obs, lane int, st *trainState, rowP, colP []float64) {
	const (
		f = pairFactors
		w = laneCount
	)
	eta, lam := learningRate, st.p.Reg
	mu := st.mu
	for _, e := range tail {
		// Fixed-size views: lane's element k of the block at index wk,
		// the bias at wf, bounds-checked once per entry.
		i, j := int(e.i), int(e.j)
		ri := (*[w*f + 1]float64)(rowP[i*laneBlock+lane:])
		cj := (*[w*f + 1]float64)(colP[j*laneBlock+lane:])
		dot := 0.0
		for k := 0; k < f; k++ {
			dot += ri[w*k] * cj[w*k]
		}
		err := e.v - (mu + ri[w*f] + cj[w*f] + dot)
		ri[w*f] += eta * (err - lam*ri[w*f])
		cj[w*f] += eta * (err - lam*cj[w*f])
		if st.biasOnly[i] {
			continue
		}
		for k := 0; k < f; k++ {
			qk, pk := ri[w*k], cj[w*k]
			ri[w*k] += eta * (err*pk - lam*qk)
			cj[w*k] += eta * (err*qk - lam*pk)
		}
	}
}

// Paired reconstruction: two independent SGD problems trained in
// lockstep, one per SIMD lane.
//
// The four reconstruction surfaces (throughput, power, latency,
// service-rate) are trained every decision quantum with identical
// hyperparameters over matrices of the same width (the 108 resource
// configurations). Each SGD update chain is serially dependent —
// entry t+1 reads the factors entry t wrote — so a single surface
// cannot be vectorised without changing its result. Two *different*
// surfaces, however, share no state at all: packing surface A into
// lane 0 and surface B into lane 1 of 128-bit VEX ops runs both update
// chains at once. Packed IEEE-754 arithmetic is element-wise exact, so
// each lane computes bit-for-bit what its own serial sweep would have,
// and the pair is byte-identical to two independent Reconstruct calls.
//
// The lanes can share an instruction stream only while they visit the
// same cell: the kernel sweeps the longest common prefix of the two
// row-major entry sequences (pairPrefix) — the offline training rows
// and, because the runtime writes both matrices of a pair at the same
// cells, the running rows too. Whatever follows the prefix in either
// lane trains in scalar Go after each kernel epoch, in the same
// row-major order, against the same interleaved state.
package sgd

// pairArgs is the argument block for the assembly kernel. Field
// offsets are hard-coded in pair_amd64.s — do not reorder.
type pairArgs struct {
	row, col, vals *float64 // interleaved row blocks, column blocks, prefix values
	offs           *uint32  // per prefix entry: byte offset of its column block
	rowPtr         *int32   // CSR row starts into offs/vals; nrows+1 of them
	nrows          int64
	mu, eta, lam   [2]float64
}

// pairFactors is the kernel's fixed latent rank: the assembly unrolls
// exactly six factor updates per entry, matching the runtime's
// Factors=6 default.
const pairFactors = 6

// pairBlock is the length in float64s of one interleaved row or column
// block: six factor pairs then the bias pair, element e of lane L at
// index 2e+L. Rows and columns keep factors and bias in one block so
// the kernel reaches both through a single pointer.
const pairBlock = 2 * (pairFactors + 1)

// ReconstructPair reconstructs two independent observation matrices,
// training both at once in SIMD lanes when the pair qualifies (see
// pairPrefix). Results are bit-identical to calling ReconstructParallel
// on each matrix separately, whether or not the paired kernel ran.
func ReconstructPair(a, b *Matrix, pa, pb Params) (*Prediction, *Prediction) {
	ra, rb, _, _ := reconstructPair(a, b, pa.withDefaults(), pb.withDefaults(), false)
	return ra, rb
}

// ReconstructPairFactors is ReconstructPair with factor capture, the
// paired analogue of ReconstructFactors: untrained (cold) models yield
// nil factors instead of an error.
func ReconstructPairFactors(a, b *Matrix, pa, pb Params) (*Prediction, *Prediction, *Factors, *Factors) {
	return reconstructPair(a, b, pa.withDefaults(), pb.withDefaults(), true)
}

// serialOrder reports whether training under p follows the serial
// sweep order exactly, making it a candidate for lane-pairing. The
// wavefront trainer (Deterministic) and the single-worker path are
// both bit-identical to trainSerial; the HOGWILD! trainer is not and
// must keep its racy schedule.
func serialOrder(p Params) bool {
	return p.Deterministic || p.Workers <= 1
}

func reconstructPair(a, b *Matrix, pa, pb Params, capture bool) (*Prediction, *Prediction, *Factors, *Factors) {
	sa := prepareTraining(a, pa)
	sb := prepareTraining(b, pb)
	if n := pairPrefix(sa, sb); n > 0 {
		trainPair(sa, sb, n)
	} else {
		sa.train(true)
		sb.train(true)
	}
	predA, facA := sa.finish(capture)
	predB, facB := sb.finish(capture)
	return predA, predB, facA, facB
}

// pairPrefix returns how many leading entries of the two prepared
// reconstructions the SIMD kernel may sweep, 0 when the pair must train
// per surface. The lanes must agree on everything the shared
// instruction stream fixes: serial sweep order, column count (the
// interleaved column blocks), the kernel's rank and the sweep count.
// Within that, the prefix runs while both lanes' row-major entry lists
// name the same cell, and stops at the first bias-frozen row: the
// kernel applies factor updates unconditionally.
func pairPrefix(sa, sb *trainState) int {
	if !pairKernelOK || !serialOrder(sa.p) || !serialOrder(sb.p) {
		return 0
	}
	// An empty lane was never initialised and has f == 0.
	if sa.f != pairFactors || sb.f != pairFactors || sa.m.Cols != sb.m.Cols {
		return 0
	}
	if sa.p.MaxIter != sb.p.MaxIter || sa.p.MaxIter <= 0 {
		return 0
	}
	n := 0
	for n < len(sa.entries) && n < len(sb.entries) {
		ea, eb := sa.entries[n], sb.entries[n]
		if ea.i != eb.i || ea.j != eb.j || sa.biasOnly[ea.i] || sb.biasOnly[ea.i] {
			break
		}
		n++
	}
	return n
}

// trainPair runs the paired sweep: per epoch, the assembly kernel
// covers the n-entry common prefix for both lanes, then each lane's
// remaining entries train scalar. All row and column state lives
// interleaved for the whole run, so a prefix ending mid-row hands the
// row to the scalar tail with nothing to copy. Each lane's per-epoch
// update order is exactly trainSerial's — the prefix is the head of
// its row-major entry list, the tail the rest — so every float64 it
// produces is bit-identical to the serial sweep.
func trainPair(sa, sb *trainState, n int) {
	rowP := make([]float64, max(sa.m.Rows, sb.m.Rows)*pairBlock)
	colP := make([]float64, sa.m.Cols*pairBlock)
	packLane(rowP, 0, sa.q, sa.rowBias)
	packLane(rowP, 1, sb.q, sb.rowBias)
	packLane(colP, 0, sa.pc, sa.colBias)
	packLane(colP, 1, sb.pc, sb.colBias)

	// The prefix in CSR form: row starts, and per entry the column
	// block's byte offset and the two lanes' values.
	nrows := sa.entries[n-1].i + 1
	rowPtr := make([]int32, nrows+1)
	offs := make([]uint32, n)
	vals := make([]float64, 2*n)
	for t, e := range sa.entries[:n] {
		rowPtr[e.i+1]++
		offs[t] = uint32(e.j * pairBlock * 8)
		vals[2*t], vals[2*t+1] = e.v, sb.entries[t].v
	}
	for r := 0; r < nrows; r++ {
		rowPtr[r+1] += rowPtr[r]
	}

	args := &pairArgs{
		row: &rowP[0], col: &colP[0], vals: &vals[0], offs: &offs[0], rowPtr: &rowPtr[0],
		nrows: int64(nrows),
		mu:    [2]float64{sa.mu, sb.mu},
		eta:   [2]float64{sa.p.LearningRate, sb.p.LearningRate},
		lam:   [2]float64{sa.p.Reg, sb.p.Reg},
	}
	for iter := 0; iter < sa.p.MaxIter; iter++ {
		pairEpoch6(args)
		pairTailEpoch(sa.entries[n:], 0, sa, rowP, colP)
		pairTailEpoch(sb.entries[n:], 1, sb, rowP, colP)
	}

	unpackLane(rowP, 0, sa.q, sa.rowBias)
	unpackLane(rowP, 1, sb.q, sb.rowBias)
	unpackLane(colP, 0, sa.pc, sa.colBias)
	unpackLane(colP, 1, sb.pc, sb.colBias)
}

// packLane copies one lane's factor matrix and bias vector into the
// interleaved blocks; unpackLane copies them back out.
func packLane(blocks []float64, lane int, fac, bias []float64) {
	const f = pairFactors
	for e, b := range bias {
		blk := blocks[e*pairBlock+lane:]
		for k := 0; k < f; k++ {
			blk[2*k] = fac[e*f+k]
		}
		blk[2*f] = b
	}
}

func unpackLane(blocks []float64, lane int, fac, bias []float64) {
	const f = pairFactors
	for e := range bias {
		blk := blocks[e*pairBlock+lane:]
		for k := 0; k < f; k++ {
			fac[e*f+k] = blk[2*k]
		}
		bias[e] = blk[2*f]
	}
}

// pairTailEpoch sweeps one lane's post-prefix entries once against the
// interleaved state. The arithmetic matches trainSerial statement for
// statement — same association, same old-value capture — so the tail
// is bit-identical to the serial sweep too.
func pairTailEpoch(tail []obs, lane int, st *trainState, rowP, colP []float64) {
	const f = pairFactors
	eta, lam := st.p.LearningRate, st.p.Reg
	mu := st.mu
	for _, e := range tail {
		// Fixed-size views: lane's element k of the block at index 2k,
		// the bias at 2f, bounds-checked once per entry.
		ri := (*[pairBlock - 1]float64)(rowP[e.i*pairBlock+lane:])
		cj := (*[pairBlock - 1]float64)(colP[e.j*pairBlock+lane:])
		dot := 0.0
		for k := 0; k < f; k++ {
			dot += ri[2*k] * cj[2*k]
		}
		err := e.v - (mu + ri[2*f] + cj[2*f] + dot)
		ri[2*f] += eta * (err - lam*ri[2*f])
		cj[2*f] += eta * (err - lam*cj[2*f])
		if st.biasOnly[e.i] {
			continue
		}
		for k := 0; k < f; k++ {
			qk, pk := ri[2*k], cj[2*k]
			ri[2*k] += eta * (err*pk - lam*qk)
			cj[2*k] += eta * (err*qk - lam*pk)
		}
	}
}

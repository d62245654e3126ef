package fleet

import (
	"fmt"
	"slices"

	"cuttlesys/internal/harness"
	"cuttlesys/internal/par"
)

// stepAll advances every machine one timeslice on f.workers workers
// (one per machine when ≤ 0) through par.For, whose doc comment
// carries the determinism argument: each machine's inputs were computed serially
// from last slice's telemetry before the fan-out, a machine writes only
// its own cells of recs and errs, and the error check and every
// cross-machine reduction run after the join, in index order. The
// records are the fleet's scratch, valid until the next stepAll.
func (f *Fleet) stepAll(ids []int, qps, loadFrac, budgets []float64) ([]harness.SliceRecord, error) {
	n := len(ids)
	f.in = stepInputs{
		ids: ids, qps: qps, loadFrac: loadFrac, budgets: budgets,
		recs: slices.Grow(f.in.recs[:0], n)[:n], errs: slices.Grow(f.in.errs[:0], n)[:n],
	}
	par.For(n, f.workers, f.stepFn)
	for k, err := range f.in.errs {
		if err != nil {
			return nil, fmt.Errorf("fleet: machine %d: %w", ids[k], err)
		}
	}
	return f.in.recs, nil
}

// stepOne is stepAll's loop body: machine in.ids[k]'s slice, written
// to its own cells. Its load is a one-element window of qps, capped so
// a scheduler appending to it cannot reach a sibling's.
func (f *Fleet) stepOne(_, k int) {
	in := &f.in
	in.recs[k], in.errs[k] = f.nodes[in.ids[k]].d.StepSlice(in.qps[k:k+1:k+1], in.loadFrac[k], in.budgets[k])
}

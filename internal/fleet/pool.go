package fleet

import (
	"fmt"

	"cuttlesys/internal/harness"
	"cuttlesys/internal/par"
)

// stepAll advances every machine one timeslice on f.workers workers
// (one per machine when ≤ 0) through par.For, whose doc comment
// carries the determinism argument: each machine's inputs were computed serially
// from last slice's telemetry before the fan-out, a machine writes only
// its own cells of recs and errs, and the error check and every
// cross-machine reduction run after the join, in index order.
func (f *Fleet) stepAll(ids []int, qps, loadFrac, budgets []float64) ([]harness.SliceRecord, error) {
	recs := make([]harness.SliceRecord, len(ids))
	errs := make([]error, len(ids))
	par.For(len(ids), f.workers, func(_, k int) {
		recs[k], errs[k] = f.nodes[ids[k]].d.StepSlice([]float64{qps[k]}, loadFrac[k], budgets[k])
	})
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("fleet: machine %d: %w", ids[k], err)
		}
	}
	return recs, nil
}

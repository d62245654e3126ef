package sgd

import (
	"errors"
	"math"
)

// Factors is the trained state of a biased matrix-factorisation model:
// the global mean, the per-row and per-column biases, and the rank-F
// latent factor matrices. It is the unit of exchange on the fleet
// model-sharing plane (internal/modelplane): a machine exports its
// factors after a reconstruction, the plane aggregates factors from
// machines running the same service mix, and a new or recovered
// machine imports the aggregate through Params.Warm so its first
// reconstruction starts from the fleet's learned model instead of the
// cold SVD start. Every set models log-transformed values, the one
// value space a fit trains in.
type Factors struct {
	// Rows, Cols and Rank pin the geometry the factors were trained
	// for. Warm-start silently falls back to cold init when the
	// geometry does not match (see Compatible).
	Rows, Cols, Rank int
	// Mu is the global mean the biases and factors are offsets around.
	Mu float64
	// Q (Rows×Rank) and P (Cols×Rank) are the latent factor matrices,
	// row-major.
	Q, P []float64
	// RowBias and ColBias are Alg. 1's b and c vectors.
	RowBias, ColBias []float64
	// Iters and Observed record the training work behind these
	// factors: SGD sweeps completed and observed cells anchoring the
	// fit. They weight fleet aggregation and guard against publishing
	// an untrained model.
	Iters, Observed int
}

// ErrColdModel is returned when factor export is attempted on a model
// that completed zero SGD iterations: its factor state is the bare SVD
// (or zero) start, and publishing it to the share plane would poison
// fleet aggregates with an untrained model.
var ErrColdModel = errors.New("sgd: model completed zero iterations; factors are untrained")

// Clone returns a deep copy.
func (f *Factors) Clone() *Factors {
	if f == nil {
		return nil
	}
	g := *f
	g.Q = append([]float64(nil), f.Q...)
	g.P = append([]float64(nil), f.P...)
	g.RowBias = append([]float64(nil), f.RowBias...)
	g.ColBias = append([]float64(nil), f.ColBias...)
	return &g
}

// Compatible reports whether the factors can warm-start a model of the
// given geometry. A set holding a NaN or ±Inf is never compatible: one
// non-finite column factor would reach every prediction within a
// sweep.
func (f *Factors) Compatible(rows, cols, rank int) bool {
	return f != nil &&
		f.Rows == rows && f.Cols == cols && f.Rank == rank &&
		len(f.Q) == rows*rank && len(f.P) == cols*rank &&
		len(f.RowBias) == rows && len(f.ColBias) == cols &&
		finite(f.Mu) && finite(f.Q...) && finite(f.P...) &&
		finite(f.RowBias...) && finite(f.ColBias...)
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Fingerprint returns an FNV-1a hash over the exact bit patterns of
// the factor state. Two factor sets compare equal under Fingerprint
// iff they are byte-identical — the determinism currency the share
// plane's versioning and the aggregation tests trade in.
func (f *Factors) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		for s := uint(0); s < 64; s += 8 {
			h ^= (x >> s) & 0xff
			h *= prime64
		}
	}
	mix(uint64(f.Rows))
	mix(uint64(f.Cols))
	mix(uint64(f.Rank))
	mix(uint64(f.Iters))
	mix(uint64(f.Observed))
	mix(1) // every set is log-space; mixed as the flag was, so fingerprints keep their values
	mix(math.Float64bits(f.Mu))
	for _, v := range f.Q {
		mix(math.Float64bits(v))
	}
	for _, v := range f.P {
		mix(math.Float64bits(v))
	}
	for _, v := range f.RowBias {
		mix(math.Float64bits(v))
	}
	for _, v := range f.ColBias {
		mix(math.Float64bits(v))
	}
	return h
}

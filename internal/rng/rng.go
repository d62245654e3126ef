// Package rng provides a small, deterministic pseudo-random number
// generator used throughout the simulator and the search algorithms.
//
// All randomness in the repository flows through this package so that
// every experiment is exactly reproducible from its seed, independent of
// the Go release (math/rand's global source and its shuffling algorithms
// changed across Go versions; PCG-XSH-RR 64/32 below is frozen).
//
// The generator is PCG-XSH-RR with a 64-bit state and 64-bit stream
// (O'Neill, 2014). It is splittable: Split derives an independent child
// stream, which DDS uses to give each of Alg. 2's workers its own
// source, so a worker's draws do not depend on when the others run.
//
// Exp and Norm use the ziggurat method on this stream (ziggurat.go):
// every simulated query draws one of each, so they are the queueing
// substrate's inner loop. Arrivals draws a whole chunk of queries'
// pairs in one pass, bit for bit as the per-query calls would.
package rng

import (
	"math"
	"math/bits"
)

const (
	pcgMult    = 6364136223846793005
	defaultInc = 1442695040888963407
)

// RNG is a deterministic PCG-XSH-RR 64/32 generator. The zero value is
// not valid; construct with New.
type RNG struct {
	state uint64
	inc   uint64 // stream selector; always odd
}

// New returns a generator seeded with seed on the default stream.
func New(seed uint64) *RNG {
	return NewStream(seed, defaultInc>>1)
}

// NewStream returns a generator seeded with seed on the given stream.
// Distinct streams produce statistically independent sequences even for
// equal seeds.
func NewStream(seed, stream uint64) *RNG {
	r := &RNG{inc: stream<<1 | 1}
	r.state = 0
	r.next()
	r.state += seed
	r.next()
	return r
}

// Split derives an independent child generator. The parent advances, so
// successive Splits yield distinct children.
func (r *RNG) Split() *RNG {
	return NewStream(uint64(r.next())<<32|uint64(r.next()), uint64(r.next())<<32|uint64(r.next()))
}

func (r *RNG) next() uint32 {
	x, next := step(r.state, r.inc)
	r.state = next
	return x
}

// step is one PCG-XSH-RR step from state on stream inc: the output and
// the next state. It takes and returns the state by value, so a loop
// that keeps the state in a local keeps it in a register.
func step(state, inc uint64) (x uint32, next uint64) {
	xorshifted := uint32(((state >> 18) ^ state) >> 27)
	return bits.RotateLeft32(xorshifted, -int(state>>59)), state*pcgMult + inc
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	return uint64(r.next())<<32 | uint64(r.next())
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation on 32 bits when
	// possible, falling back to 64-bit modulo for huge n.
	if n <= math.MaxInt32 {
		bound := uint32(n)
		threshold := -bound % bound
		for {
			v := r.next()
			if v >= threshold {
				return int(v % bound)
			}
		}
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Shuffle randomly permutes the first n elements using swap, matching the
// contract of math/rand.Shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

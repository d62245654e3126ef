// Package bad violates every determinism rule.
package bad

import (
	"fmt"
	"math/rand"
	"time"
)

// Stamp reads the wall clock.
func Stamp() int64 { return time.Now().UnixNano() }

// Elapsed reads the wall clock through time.Since.
func Elapsed(t0 time.Time) float64 { return time.Since(t0).Seconds() }

// Roll draws from the global math/rand source.
func Roll() int { return rand.Intn(6) }

// Keys leaks map order into a slice.
func Keys(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

// Total accumulates floats in map order.
func Total(m map[string]float64) float64 {
	s := 0.0
	for _, v := range m {
		s += v
	}
	return s
}

// Dump writes output in map order.
func Dump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}

// Malformed reasonless directive above: flagged by the lint check.
//
//lint:allow determinism
func Malformed() {}

// Package clean emits map contents deterministically: every idiom here
// must produce zero determinism findings.
package clean

import (
	"fmt"
	"sort"
)

// Render prints m in sorted-key order — the sorted-keys preamble the
// check recognises (append, then sort, then iterate the slice).
func Render(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += fmt.Sprintf("%s=%d\n", k, m[k])
	}
	return out
}

// Count accumulates an int: addition over ints commutes, so iteration
// order cannot leak into the result.
func Count(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// PerKey writes a distinct cell per key; order cannot matter.
func PerKey(m map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range m {
		out[k] += v
	}
	return out
}

package clean

import "sort"

// Collect appends keys inside a closure and sorts them in the
// enclosing function: the sort is after the loop in the same function.
func Collect(m map[string]int) []string {
	var keys []string
	func() {
		for k := range m {
			keys = append(keys, k)
		}
	}()
	sort.Strings(keys)
	return keys
}

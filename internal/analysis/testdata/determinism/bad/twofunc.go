package bad

import "sort"

// Names leaks map order into a slice. The sort in SortNames below is of
// another slice that happens to share the name, so it does not count.
func Names(m map[string]int) []string {
	var names []string
	for k := range m {
		names = append(names, k)
	}
	return names
}

// SortNames sorts its own names.
func SortNames(names []string) []string {
	sort.Strings(names)
	return names
}

package clean

import "runtime"

// pinWidth is test scaffolding that pins the width, as the 1-vs-N
// byte tests do: width reads in _test.go files are not flagged.
func pinWidth() func() {
	prev := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(prev) }
}

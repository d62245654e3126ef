package allowed

import "runtime"

// Width caps a worker pool whose merge is index-ordered; the waiver
// records why the output does not depend on the width.
func Width() int {
	return runtime.GOMAXPROCS(0) //lint:allow determinism execution width only; the merged output is width-invariant
}

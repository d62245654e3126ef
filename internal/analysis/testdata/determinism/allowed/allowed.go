// Package allowed demonstrates the honored //lint:allow escape hatch.
package allowed

import "time"

// Bench measures real wall time; the duration IS the deliverable, so
// the determinism findings are waived with a reason.
func Bench(f func()) float64 {
	//lint:allow determinism wall-clock benchmark timing is the measured result
	start := time.Now()
	f()
	//lint:allow determinism wall-clock benchmark timing is the measured result
	return time.Since(start).Seconds()
}

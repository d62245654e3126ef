package bad

// MarkedHelper is itself a //hot:path root: its allocation is reported
// once, at depth 0, not again from every marked caller's closure.
//
//hot:path scratch builder, audited separately
func MarkedHelper() []int {
	return make([]int, 4)
}

// CallsMarked reaching MarkedHelper must not re-report its body.
//
//hot:path outer loop
func CallsMarked() int {
	return len(MarkedHelper())
}

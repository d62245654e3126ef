package fleet

// historyBlock is how many records one history block holds. At 32, a
// block of harness.SliceRecord (320 B) or SliceRecord (192 B) is
// exactly one allocation size class, and a history's unused tail is
// never more than 31 records, less than append leaves at the run
// lengths the benchmark keeps (170, 266 and 4 010 records).
const historyBlock = 32

// history is an append-only record list that grows one fixed-size
// block at a time: adding a record never copies the ones already kept,
// and flat copies them out once, when a Result asks for them.
type history[T any] struct {
	blocks [][]T
	n      int
}

func (h *history[T]) add(v T) {
	if h.n%historyBlock == 0 {
		h.blocks = append(h.blocks, make([]T, 0, historyBlock))
	}
	last := &h.blocks[len(h.blocks)-1]
	*last = append(*last, v)
	h.n++
}

func (h *history[T]) len() int { return h.n }

// flat returns the records in order in a fresh slice, nil when empty.
func (h *history[T]) flat() []T {
	if h.n == 0 {
		return nil
	}
	out := make([]T, 0, h.n)
	for _, b := range h.blocks {
		out = append(out, b...)
	}
	return out
}

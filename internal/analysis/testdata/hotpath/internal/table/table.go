// Package table mirrors the staged-surface shape of hot-path round 2:
// //hot:path method roots whose shared fold is reached through method
// calls, so the closure walk must follow method edges and name
// receivers in the chain.
package table

import "math"

// Table is a dense grid with a reusable scratch slice.
type Table struct {
	grid    []float64
	scratch []float64
}

// At is a hot grid read delegating to the unmarked fold; the closure
// walk must carry through the method call.
//
//hot:path grid read per quantum
func (t *Table) At(i int) float64 {
	return t.fold(i)
}

// fold is not hot-marked itself: both its allocation and its log call
// belong to At's closure.
func (t *Table) fold(i int) float64 {
	tmp := append(t.scratch, t.grid[i])
	return math.Log2(tmp[0])
}

// Stats is a clean method read on the same receiver — negative space:
// pure arithmetic through a method edge must stay silent.
//
//hot:path counter read per slice
func (t *Table) Stats(i int) float64 {
	return t.cell(i)
}

func (t *Table) cell(i int) float64 {
	return t.grid[i]
}

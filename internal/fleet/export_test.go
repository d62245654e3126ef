package fleet

// Weight reports machine id's current routing weight in [floor, 1]; a
// machine the router has not seen yet is at full weight. The router's
// own tests read the weights through it; Route is the only production
// reader.
func (q *QoSAware) Weight(id int) float64 {
	if w, ok := q.w[id]; ok {
		return w
	}
	return 1
}

// HistoryBlock is the record count of one history block.
const HistoryBlock = historyBlock

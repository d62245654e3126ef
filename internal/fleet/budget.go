package fleet

// An Arbiter partitions the cluster power budget across machines each
// slice, generalising the single-machine budget patterns of §VIII-D:
// instead of every machine receiving a fixed fraction of its own
// reference power, the cluster cap is one pool and machines compete
// for it based on reported headroom. Split must return one positive
// watt share per telemetry entry summing (up to float rounding) to
// budgetW; like routers, arbiters run serially in machine index order,
// must not mutate the telemetry slice, and return a slice they do not
// keep (the fleet keeps it as the record's NodeBudgetW).
type Arbiter interface {
	Name() string
	Split(budgetW float64, tele []Telemetry) []float64
}

// Proportional splits the budget by reference maximum power — every
// machine runs at the same fraction of its own capacity, reproducing
// the paper's per-machine ConstantBudget when machines are identical.
type Proportional struct{}

// Name implements Arbiter.
func (Proportional) Name() string { return "proportional" }

// Split implements Arbiter.
func (Proportional) Split(budgetW float64, tele []Telemetry) []float64 {
	w := make([]float64, len(tele))
	for i, t := range tele {
		w[i] = t.RefMaxPowerW
	}
	return divide(budgetW, w)
}

// Headroom re-partitions the cap from last-slice demand: a machine
// drawing near its allotment — or one under visible stress (QoS
// violation, failed cores, degraded mode) — bids its full reference
// power, while one with slack bids less, releasing watts to
// contended siblings. Demand is the drawn fraction of last slice's
// allotment, and the bid keeps a floor so no machine is starved below
// a quarter of its proportional share:
//
//	bid = ref × (0.25 + 0.75 × demand)
//
// Before telemetry exists (or under stress) demand is 1, so the
// first slice degenerates to the Proportional split.
type Headroom struct{}

// Name implements Arbiter.
func (Headroom) Name() string { return "headroom" }

// Split implements Arbiter.
func (Headroom) Split(budgetW float64, tele []Telemetry) []float64 {
	w := make([]float64, len(tele))
	for i, t := range tele {
		demand := 1.0
		stressed := t.Violated || t.Degraded || t.FailedCores > 0
		if t.Valid && !stressed && t.BudgetW > 0 {
			demand = t.AvgPowerW / t.BudgetW
			if demand < 0 {
				demand = 0
			} else if demand > 1 {
				demand = 1
			}
		}
		w[i] = t.RefMaxPowerW * (0.25 + 0.75*demand)
	}
	return divide(budgetW, w)
}

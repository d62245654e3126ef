// Package modelplane is the fleet-wide model-sharing plane (ROADMAP
// item 4): machines running the same service mix publish their trained
// SGD latent factors (internal/sgd.Factors) to a versioned aggregation
// store, and new or recovered machines warm-start from the fleet
// aggregate instead of cold random/SVD initialisation — turning the
// sampling phase's full characterization cost into a lookup plus a few
// fine-tune sweeps.
//
// Determinism is the design constraint. Every fold the plane performs
// runs in the fleet's serial section (the fleet.SharePlane hook fires
// after the index-ordered fold) and follows a fixed order throughout:
// publications are merged in ascending machine-id order, store keys
// are visited in ascending key order, and the decay fold is a
// fixed-order element-wise expression — so the aggregate bytes never
// depend on publish arrival order, goroutine interleaving or
// GOMAXPROCS. Two fleets stepping the same schedule produce
// bit-identical aggregates, which is what makes warm-started runs
// BENCH-pinnable.
//
// The accuracy-vs-staleness tradeoff is exposed through three knobs:
// Params.SyncPeriod (how many slices between publish/aggregate rounds
// — a stale aggregate lags local reality by up to one period),
// Params.Decay (how much the previous aggregate persists through each
// fold), and Params.FineTuneIters (how many local SGD sweeps a warm
// import runs to adapt the fleet model to the machine).
package modelplane

import (
	"sort"

	"cuttlesys/internal/fleet"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/obs"
	"cuttlesys/internal/sgd"
)

// Sharer is the capability the plane requires of a scheduler to
// participate in model sharing. core.Runtime implements it; schedulers
// that do not (baselines, stubs) are silently skipped.
type Sharer interface {
	// ShareKey identifies the service mix the scheduler's model was
	// trained for. Machines only ever exchange factors within a key:
	// aggregating across different mixes would average unrelated
	// surfaces.
	ShareKey() uint64
	// ExportFactors returns the latest trained factor set per surface
	// ("thr", "pwr", "lat", ...). It must error — not return noise —
	// when the model has completed zero iterations (sgd.ErrColdModel).
	ExportFactors() (map[string]*sgd.Factors, error)
	// WarmStart hands the scheduler fleet-aggregated factors to seed
	// its next reconstruction, with the plane's fine-tune sweep count
	// and sampling-confidence credit.
	WarmStart(fac map[string]*sgd.Factors, fineTuneIters, confidence int)
}

// Params tunes the plane. The zero value selects the defaults below.
type Params struct {
	// SyncPeriod is the publish/aggregate cadence in slices: every
	// SyncPeriod-th slice each participating machine publishes its
	// factors and the plane folds a new aggregate version. Larger
	// periods trade freshness for fewer folds. Default 4.
	SyncPeriod int
	// Decay is the weight of the previous aggregate in each fold:
	// new = Decay·old + (1−Decay)·mean(publications). 0 forgets
	// history entirely each round; values near 1 change slowly.
	// Default 0.5.
	Decay float64
	// FineTuneIters is the per-machine SGD sweep count a warm-started
	// reconstruction runs instead of the full MaxIter. Default 40.
	FineTuneIters int
	// WarmConfidence is the sampling-confidence credit (in clean
	// slices) a warm import grants the scheduler's QoS scan — the
	// mechanism by which warm starts shorten the sampling phase.
	// Default 2.
	WarmConfidence int
}

// withDefaults replaces every zero field with its documented default.
func (p Params) withDefaults() Params {
	if p.SyncPeriod <= 0 {
		p.SyncPeriod = 4
	}
	if p.Decay == 0 {
		p.Decay = 0.5
	}
	if p.FineTuneIters <= 0 {
		p.FineTuneIters = 40
	}
	if p.WarmConfidence <= 0 {
		p.WarmConfidence = 2
	}
	return p
}

// publication is one machine's factor drop, pending aggregation.
type publication struct {
	machine int
	slice   int
	fac     map[string]*sgd.Factors
}

// entry is the store's state for one service-mix key.
type entry struct {
	version    int
	lastAgg    int // slice index of the latest fold
	agg        map[string]*sgd.Factors
	pending    []publication
	publishes  int
	warmStarts int
}

// Plane is the model-sharing store. It is not safe for concurrent use:
// all calls must come from the fleet's serial section (the SharePlane
// hook) or from the control plane's provisioning path, which likewise
// runs between slices.
type Plane struct {
	p     Params
	obs   obs.Collector
	keys  map[uint64]*entry
	slice int     // latest slice index seen on the step loop
	now   float64 // latest slice start time seen on the step loop

	publishes  int
	aggregates int
	warmStarts int
}

// New assembles a plane. collector may be nil.
func New(p Params, collector obs.Collector) *Plane {
	return &Plane{
		p:    p.withDefaults(),
		obs:  obs.OrNop(collector),
		keys: make(map[uint64]*entry),
	}
}

// AfterSlice implements fleet.SharePlane: on every SyncPeriod-th slice
// it collects factor publications from sharing-capable members (in the
// ascending id order the fleet hands them over) and folds a new
// aggregate version per touched key. Machines whose models are still
// cold (zero completed iterations) are skipped — sgd.ErrColdModel is
// the guard that keeps random-init noise out of fleet aggregates.
func (pl *Plane) AfterSlice(slice int, now float64, members []fleet.ShareMember) {
	pl.slice = slice
	pl.now = now
	if (slice+1)%pl.p.SyncPeriod != 0 {
		return
	}
	for _, m := range members {
		sh, ok := m.Scheduler.(Sharer)
		if !ok {
			continue
		}
		fac, err := sh.ExportFactors()
		if err != nil {
			continue // cold model: nothing trained to share yet
		}
		pl.PublishFactors(sh.ShareKey(), m.ID, slice, fac)
	}
	pl.AggregatePending(slice)
}

// PublishFactors records one machine's factor set for key, pending the
// next fold. The factors are deep-copied so the publisher may keep
// training its live model.
func (pl *Plane) PublishFactors(key uint64, machine, slice int, fac map[string]*sgd.Factors) {
	if len(fac) == 0 {
		return
	}
	e := pl.keys[key]
	if e == nil {
		e = &entry{lastAgg: -1}
		pl.keys[key] = e
	}
	e.pending = append(e.pending, publication{machine: machine, slice: slice, fac: cloneSet(fac)})
	e.publishes++
	pl.publishes++
	if pl.obs.Enabled() {
		pl.obs.Emit(obs.Instant(obs.EventSharePublish, pl.now).WithMachine(obs.ClusterMachine).
			WithSlice(slice).With("machine", obs.Itoa(machine)).With("key", keyLabel(key)))
		pl.obs.Add(obs.MetricSharePublishes, obs.Label("key", keyLabel(key)), 1)
	}
}

// AggregatePending folds every key's pending publications into a new
// aggregate version. Keys are visited in ascending order and each
// key's publications are folded in ascending machine-id order, so the
// result bytes are independent of publish arrival order; called from
// the fleet's serial section they are independent of GOMAXPROCS too.
func (pl *Plane) AggregatePending(slice int) {
	keys := make([]uint64, 0, len(pl.keys))
	for k, e := range pl.keys {
		if len(e.pending) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		e := pl.keys[k]
		sort.SliceStable(e.pending, func(i, j int) bool { return e.pending[i].machine < e.pending[j].machine })
		fresh := meanSet(e.pending)
		if len(fresh) == 0 {
			e.pending = e.pending[:0]
			continue
		}
		if e.agg == nil {
			e.agg = fresh
		} else {
			e.agg = decayFold(e.agg, fresh, pl.p.Decay)
		}
		sources := len(e.pending)
		e.pending = e.pending[:0]
		e.version++
		e.lastAgg = slice
		pl.aggregates++
		if pl.obs.Enabled() {
			pl.obs.Emit(obs.Instant(obs.EventShareAggregate, pl.now).WithMachine(obs.ClusterMachine).
				WithSlice(slice).With("key", keyLabel(k)).
				With("version", obs.Itoa(e.version)).With("sources", obs.Itoa(sources)))
			pl.obs.Add(obs.MetricShareAggregates, obs.Label("key", keyLabel(k)), 1)
			pl.obs.Set(obs.MetricShareVersion, obs.Label("key", keyLabel(k)), float64(e.version))
		}
	}
}

// WarmStartMachine hands machine the fleet aggregate for its service
// mix, if one exists. It reports whether a warm start happened — false
// when the scheduler cannot share, the key has no aggregate yet, or
// the plane is nil. Safe to call from the control plane's provisioning
// path (between slices).
func (pl *Plane) WarmStartMachine(machine int, sched harness.Scheduler) bool {
	if pl == nil {
		return false
	}
	sh, ok := sched.(Sharer)
	if !ok {
		return false
	}
	key := sh.ShareKey()
	e := pl.keys[key]
	if e == nil || e.agg == nil {
		return false
	}
	sh.WarmStart(cloneSet(e.agg), pl.p.FineTuneIters, pl.p.WarmConfidence)
	e.warmStarts++
	pl.warmStarts++
	staleness := pl.slice - e.lastAgg
	if pl.obs.Enabled() {
		pl.obs.Emit(obs.Instant(obs.EventShareWarmStart, pl.now).WithMachine(obs.ClusterMachine).
			WithSlice(pl.slice).With("machine", obs.Itoa(machine)).
			With("key", keyLabel(key)).With("version", obs.Itoa(e.version)))
		pl.obs.Add(obs.MetricShareWarmStarts, obs.Label("key", keyLabel(key)), 1)
		pl.obs.Set(obs.MetricShareStaleness, obs.Label("key", keyLabel(key)), float64(staleness))
	}
	return true
}

// Totals reports lifetime publish / aggregate-fold / warm-start
// counts.
func (pl *Plane) Totals() (publishes, aggregates, warmStarts int) {
	return pl.publishes, pl.aggregates, pl.warmStarts
}

// KeyStats summarises one service-mix key for reports.
type KeyStats struct {
	Key         string `json:"key"` // hex service-mix hash
	Version     int    `json:"version"`
	Publishes   int    `json:"publishes"`
	WarmStarts  int    `json:"warmStarts"`
	Staleness   int    `json:"stalenessSlices"` // slices since the last fold
	Fingerprint string `json:"fingerprint"`     // hex, bit-exact aggregate identity
}

// Stats returns per-key statistics in ascending key order — a
// deterministic summary suitable for BENCH reports.
func (pl *Plane) Stats() []KeyStats {
	keys := make([]uint64, 0, len(pl.keys))
	for k := range pl.keys {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]KeyStats, 0, len(keys))
	for _, k := range keys {
		e := pl.keys[k]
		st := KeyStats{
			Key:        keyLabel(k),
			Version:    e.version,
			Publishes:  e.publishes,
			WarmStarts: e.warmStarts,
		}
		if e.agg != nil {
			st.Staleness = pl.slice - e.lastAgg
			st.Fingerprint = keyLabel(setFingerprint(e.agg))
		}
		out = append(out, st)
	}
	return out
}

// setFingerprint hashes a factor set to a single order-independent-of-
// nothing identity: matrix names are visited in sorted order and each
// factor set's exact bit pattern is mixed in. Equal fingerprints mean
// byte-identical aggregates — the property the determinism tests pin.
func setFingerprint(set map[string]*sgd.Factors) uint64 {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, n := range names {
		for i := 0; i < len(n); i++ {
			h ^= uint64(n[i])
			h *= prime64
		}
		fp := set[n].Fingerprint()
		for s := uint(0); s < 64; s += 8 {
			h ^= (fp >> s) & 0xff
			h *= prime64
		}
	}
	return h
}

func keyLabel(k uint64) string {
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[k&0xf]
		k >>= 4
	}
	return string(b[:])
}

func cloneSet(set map[string]*sgd.Factors) map[string]*sgd.Factors {
	out := make(map[string]*sgd.Factors, len(set))
	for n, f := range set {
		out[n] = f.Clone()
	}
	return out
}

// meanSet computes the element-wise mean of the pending publications,
// per surface name. Publications must already be sorted by machine id;
// the accumulation order over publications and over matrix names is
// fixed, so the bytes are reproducible. A publication whose geometry
// disagrees with the first publication of its surface is skipped — it
// belongs to a different model shape and averaging it would corrupt
// the aggregate.
func meanSet(pubs []publication) map[string]*sgd.Factors {
	// Surface-name roster in first-seen order over ascending machines,
	// then sorted — deterministic regardless of which machines carry
	// which surfaces.
	names := make([]string, 0, 4)
	seen := make(map[string]bool, 4)
	for _, p := range pubs {
		local := make([]string, 0, len(p.fac))
		for n := range p.fac {
			local = append(local, n)
		}
		sort.Strings(local)
		for _, n := range local {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)

	out := make(map[string]*sgd.Factors, len(names))
	for _, n := range names {
		var acc *sgd.Factors
		count := 0
		for _, p := range pubs {
			f := p.fac[n]
			if f == nil {
				continue
			}
			if acc == nil {
				acc = f.Clone()
				count = 1
				continue
			}
			if !f.Compatible(acc.Rows, acc.Cols, acc.Rank) {
				continue
			}
			addInto(acc, f)
			count++
		}
		if acc == nil {
			continue
		}
		if count > 1 {
			scale := 1 / float64(count)
			scaleInto(acc, scale)
		}
		out[n] = acc
	}
	return out
}

func addInto(acc, f *sgd.Factors) {
	acc.Mu += f.Mu
	for i := range acc.Q {
		acc.Q[i] += f.Q[i]
	}
	for i := range acc.P {
		acc.P[i] += f.P[i]
	}
	for i := range acc.RowBias {
		acc.RowBias[i] += f.RowBias[i]
	}
	for i := range acc.ColBias {
		acc.ColBias[i] += f.ColBias[i]
	}
	if f.Iters > acc.Iters {
		acc.Iters = f.Iters
	}
	if f.Observed > acc.Observed {
		acc.Observed = f.Observed
	}
}

func scaleInto(f *sgd.Factors, s float64) {
	f.Mu *= s
	for i := range f.Q {
		f.Q[i] *= s
	}
	for i := range f.P {
		f.P[i] *= s
	}
	for i := range f.RowBias {
		f.RowBias[i] *= s
	}
	for i := range f.ColBias {
		f.ColBias[i] *= s
	}
}

// decayFold combines the previous aggregate with the fresh mean:
// new = decay·old + (1−decay)·fresh, element-wise, visiting surface
// names in sorted order. Surfaces present on only one side pass
// through unchanged (old surfaces persist; new surfaces join at full
// weight).
func decayFold(old, fresh map[string]*sgd.Factors, decay float64) map[string]*sgd.Factors {
	names := make([]string, 0, len(old)+len(fresh))
	seen := make(map[string]bool, len(old)+len(fresh))
	for n := range old {
		seen[n] = true
	}
	for n := range fresh {
		seen[n] = true
	}
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make(map[string]*sgd.Factors, len(names))
	for _, n := range names {
		o, f := old[n], fresh[n]
		switch {
		case o == nil:
			out[n] = f
		case f == nil:
			out[n] = o
		case !f.Compatible(o.Rows, o.Cols, o.Rank):
			out[n] = f // geometry changed: the fresh model wins outright
		default:
			c := o.Clone()
			w := 1 - decay
			c.Mu = decay*o.Mu + w*f.Mu
			for i := range c.Q {
				c.Q[i] = decay*o.Q[i] + w*f.Q[i]
			}
			for i := range c.P {
				c.P[i] = decay*o.P[i] + w*f.P[i]
			}
			for i := range c.RowBias {
				c.RowBias[i] = decay*o.RowBias[i] + w*f.RowBias[i]
			}
			for i := range c.ColBias {
				c.ColBias[i] = decay*o.ColBias[i] + w*f.ColBias[i]
			}
			c.Iters = maxInt(o.Iters, f.Iters)
			c.Observed = maxInt(o.Observed, f.Observed)
			out[n] = c
		}
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

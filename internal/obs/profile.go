package obs

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// Profile accumulates per-phase host costs: wall-clock nanoseconds
// and heap bytes allocated. It is the one observability product that
// is host-dependent by nature — it is carried separately from the
// trace and metric exports and excluded from every byte-regression
// comparison (DESIGN.md §10).
type Profile struct {
	mu     sync.Mutex
	phases map[string]*PhaseCost
}

// PhaseCost is the accumulated host cost of one instrumented phase.
type PhaseCost struct {
	Phase      string `json:"phase"`
	Count      int64  `json:"count"`
	WallNs     int64  `json:"wall_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

// newProfile builds an empty profile.
func newProfile() *Profile {
	return &Profile{phases: map[string]*PhaseCost{}}
}

// Record folds one phase sample into the profile.
func (p *Profile) record(phase string, wallNs int64, allocBytes uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.phases[phase]
	if !ok {
		c = &PhaseCost{Phase: phase}
		p.phases[phase] = c
	}
	c.Count++
	c.WallNs += wallNs
	c.AllocBytes += allocBytes
}

// Snapshot returns the accumulated phases sorted by name.
func (p *Profile) Snapshot() []PhaseCost {
	p.mu.Lock()
	defer p.mu.Unlock()
	keys := make([]string, 0, len(p.phases))
	for k := range p.phases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]PhaseCost, 0, len(keys))
	for _, k := range keys {
		out = append(out, *p.phases[k])
	}
	return out
}

// allocSample is the runtime/metrics key for cumulative heap
// allocation — cheaper to read than runtime.MemStats and monotonic,
// so a begin/end difference is the bytes a phase allocated.
const allocSample = "/gc/heap/allocs:bytes"

// heapAllocBytes reads the cumulative heap-allocation counter.
func heapAllocBytes() uint64 {
	s := [1]metrics.Sample{{Name: allocSample}}
	metrics.Read(s[:])
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// WallSample is an in-flight phase measurement from BeginWall. The
// zero value (disabled collector) makes End a no-op, so instrumented
// paths pay nothing when observability is off.
type WallSample struct {
	start time.Time
	alloc uint64
	on    bool
}

// BeginWall starts a wall-clock/allocation measurement if c is
// enabled. The host-time read is intentional and quarantined: the
// sample only ever reaches Collector.Wall, i.e. the Profile, never
// the deterministic trace or metric exports.
func BeginWall(c Collector) WallSample {
	if !c.Enabled() {
		return WallSample{}
	}
	return WallSample{
		start: time.Now(), //lint:allow determinism wall profiling is quarantined in the Profile, excluded from deterministic output
		alloc: heapAllocBytes(),
		on:    true,
	}
}

// End records the sample into c under the phase name; a zero sample
// does nothing.
func (s WallSample) End(c Collector, phase string) {
	if !s.on {
		return
	}
	wall := time.Since(s.start) //lint:allow determinism wall profiling is quarantined in the Profile, excluded from deterministic output
	c.Wall(phase, wall.Nanoseconds(), heapAllocBytes()-s.alloc)
}

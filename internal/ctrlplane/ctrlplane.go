// Package ctrlplane is the fleet's production control plane: the
// reconcile loop that sits above internal/fleet and keeps a cluster
// serving through machine failures, operator churn and load swings.
// Each decision quantum it
//
//  1. reconciles health — every machine's last-slice telemetry (QoS
//     violations, divergence-detector degradation, fail-stopped cores:
//     the same signals the obs subsystem traces) feeds a debounced
//     state machine healthy → suspect → quarantined → draining →
//     evicted, with a probation lane for re-admission;
//  2. autoscales — offered load against serving capacity, debounced
//     with hysteresis and a cooldown, adds machines through a
//     Provision factory (power headroom permitting) and drains
//     machines the fleet no longer needs;
//  3. steps the fleet — quarantined and draining machines are masked
//     to zero routing weight (they keep their power share until they
//     leave, so in-flight work can finish), probation machines serve a
//     reduced share, and the wrapped router splits traffic across the
//     rest.
//
// Every control decision is made serially between slices from
// last-slice telemetry, so a managed run is as byte-deterministic as
// the fleet underneath it: same seed, same drills, same report at any
// GOMAXPROCS. The membership log and transition log are part of the
// deterministic output — they are the flight recorder an operator
// replays after an incident.
package ctrlplane

import (
	"fmt"
	"math"

	"cuttlesys/internal/fleet"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/obs"
	"cuttlesys/internal/rng"
)

// State is a machine's position in the control plane's health state
// machine.
type State uint8

const (
	// Healthy machines take full routing weight.
	Healthy State = iota
	// Suspect machines have shown consecutive bad slices but still
	// serve; the debounce keeps a single bad slice from draining a
	// machine.
	Suspect
	// Quarantined machines get zero routing weight but keep their
	// power share and keep stepping, so recovery is observable.
	Quarantined
	// Draining machines are on their way out: zero weight, a bounded
	// number of slices to finish in-flight work, then forced eviction.
	Draining
	// Probation machines are newly admitted or re-admitted: they serve
	// a reduced share until they prove themselves.
	Probation
	// Evicted machines have left the fleet for good.
	Evicted
)

var stateNames = [...]string{"healthy", "suspect", "quarantined", "draining", "probation", "evicted"}

// String implements fmt.Stringer.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// serving reports whether the state receives routed traffic.
func (s State) serving() bool { return s == Healthy || s == Suspect || s == Probation }

// HealthConfig tunes the health state machine's debounce. All counts
// are consecutive slices; zero selects the documented default.
type HealthConfig struct {
	// SuspectAfter bad slices move healthy → suspect (default 2).
	SuspectAfter int
	// QuarantineAfter further bad slices move suspect → quarantined
	// (default 2).
	QuarantineAfter int
	// RecoverAfter good slices move suspect → healthy (default 2).
	RecoverAfter int
	// ReleaseAfter good slices move quarantined → probation
	// (default 3).
	ReleaseAfter int
	// ProbationAfter good slices move probation → healthy (default 4).
	// A bad slice during probation returns the machine to quarantine.
	ProbationAfter int
	// ProbationWeight scales a probation machine's routing share
	// (default 0.25).
	ProbationWeight float64
	// DrainAfter bad slices inside quarantine give up on recovery and
	// start the drain (default 6).
	DrainAfter int
	// DrainSlices bounds the drain: after this many slices the machine
	// is evicted regardless (default 3).
	DrainSlices int
}

func (c HealthConfig) withDefaults() HealthConfig {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&c.SuspectAfter, 2)
	def(&c.QuarantineAfter, 2)
	def(&c.RecoverAfter, 2)
	def(&c.ReleaseAfter, 3)
	def(&c.ProbationAfter, 4)
	def(&c.DrainAfter, 6)
	def(&c.DrainSlices, 3)
	if c.ProbationWeight <= 0 || c.ProbationWeight > 1 {
		c.ProbationWeight = 0.25
	}
	return c
}

// ScaleConfig tunes the closed-loop autoscaler. The zero value
// disables scaling (no Provision factory, no scale-down).
type ScaleConfig struct {
	// UpUtil and DownUtil are the hysteresis band on utilization
	// (offered QPS / serving capacity): above UpUtil counts toward a
	// scale-up, below DownUtil toward a scale-down, between them both
	// streaks reset. Defaults 0.8 and 0.3.
	UpUtil   float64
	DownUtil float64
	// UpAfter / DownAfter debounce: consecutive out-of-band slices
	// before acting. Defaults 3 and 6.
	UpAfter   int
	DownAfter int
	// Cooldown is the slices to wait after any scaling action before
	// the next (default 10). Health-driven replacement bypasses it.
	Cooldown int
	// MinMachines floors scale-down (default 1). MaxMachines caps
	// scale-up; 0 means unbounded.
	MinMachines int
	MaxMachines int
	// MinBudgetFrac is the power-headroom gate: a scale-up only
	// proceeds if the cluster budget would still cover at least this
	// fraction of the grown fleet's reference power (default 0.5).
	MinBudgetFrac float64
	// Provision builds the machine for a scale-up or replacement; id
	// is the stable id the fleet will assign and seed is drawn from the
	// manager's deterministic seed stream. Nil disables scale-up and
	// replacement.
	Provision func(id int, seed uint64) (fleet.NodeSpec, error)
	// ReplaceEvicted provisions a successor whenever a machine is
	// evicted for health reasons (not for scale-down), bypassing the
	// cooldown — failover capacity beats hysteresis.
	ReplaceEvicted bool
	// Seed seeds the provisioning seed stream.
	Seed uint64
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	if c.UpUtil <= 0 {
		c.UpUtil = 0.8
	}
	if c.DownUtil <= 0 {
		c.DownUtil = 0.3
	}
	if c.UpAfter <= 0 {
		c.UpAfter = 3
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 6
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 10
	}
	if c.MinMachines <= 0 {
		c.MinMachines = 1
	}
	if c.MinBudgetFrac <= 0 {
		c.MinBudgetFrac = 0.5
	}
	return c
}

// WarmStarter is the control plane's hook into the fleet model-sharing
// plane (internal/modelplane.Plane implements it): every machine the
// manager provisions — autoscale-up and ReplaceEvicted successors alike
// — is offered fleet-aggregated factors before its first slice, so a
// replacement does not pay the full characterization cost its
// predecessor already paid. The hook runs on the serial provisioning
// path, between slices.
type WarmStarter interface {
	// WarmStartMachine hands machine id's scheduler the fleet aggregate
	// for its service mix; reports whether a warm start happened.
	WarmStartMachine(id int, sched harness.MultiScheduler) bool
}

// Config assembles a Manager: the fleet it runs (whose Router is
// wrapped with the control plane's health mask) plus the health and
// scaling policies.
type Config struct {
	Fleet  fleet.Config
	Health HealthConfig
	Scale  ScaleConfig
	// WarmStart, when non-nil, warm-starts every provisioned machine
	// from the model-sharing plane. Nil (the default) leaves successors
	// cold-started.
	WarmStart WarmStarter
}

// MembershipEvent is one entry of the membership log: a machine
// joining or leaving the fleet, with the slice and simulated time it
// happened and why.
type MembershipEvent struct {
	Slice   int
	T       float64
	Machine int
	// Event is "join" or "evict".
	Event  string
	Reason string
}

// Transition is one entry of the health transition log.
type Transition struct {
	Slice   int
	T       float64
	Machine int
	From    string
	To      string
	Reason  string
}

// tracker is one machine's control-plane state.
type tracker struct {
	state State
	// bad / good are the consecutive-slice debounce counters; entering
	// a new state resets both.
	bad, good int
	// drainLeft counts down the bounded drain.
	drainLeft int
	// drainReason is carried from the transition into Draining to the
	// final eviction ("drain-timeout" keeps no context of its own).
	drainReason string
}

// Manager is the control plane over one fleet. All methods must be
// called from a single goroutine; every decision runs serially between
// fleet slices, preserving the fleet's determinism contract.
type Manager struct {
	f      *fleet.Fleet
	health HealthConfig
	scale  ScaleConfig
	warm   WarmStarter
	mask   *maskRouter
	obs    obs.Collector

	// trk is indexed by stable machine id, growing with the fleet's
	// slots — never keyed by a map, so every scan is in id order.
	trk []*tracker

	log   []MembershipEvent
	trans []Transition
	recs  []SliceRecord

	slice      int
	cooldown   int
	upStreak   int
	downStreak int
	seeds      *rng.RNG
	unrouted   float64
}

// validate rejects threshold values the control loop's comparisons
// would silently never trip on. withDefaults only replaces zero, so a
// NaN that leaks in from an upstream config (every comparison against
// NaN is false) would disable the autoscaler or the probation weight
// without a trace — fail loudly at construction instead.
func (cfg Config) validate() error {
	checks := []struct {
		name string
		v    float64
	}{
		{"Health.ProbationWeight", cfg.Health.ProbationWeight},
		{"Scale.UpUtil", cfg.Scale.UpUtil},
		{"Scale.DownUtil", cfg.Scale.DownUtil},
		{"Scale.MinBudgetFrac", cfg.Scale.MinBudgetFrac},
	}
	for _, c := range checks {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			return fmt.Errorf("ctrlplane: %s is %v; thresholds must be finite", c.name, c.v)
		}
	}
	return nil
}

// New builds a manager over a fresh fleet assembled from specs. The
// initial machines start healthy; everything the autoscaler or
// replacement path admits later starts on probation.
func New(cfg Config, specs ...fleet.NodeSpec) (*Manager, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &Manager{
		health: cfg.Health.withDefaults(),
		scale:  cfg.Scale.withDefaults(),
		warm:   cfg.WarmStart,
		obs:    obs.OrNop(cfg.Fleet.Collector),
		seeds:  rng.New(cfg.Scale.Seed),
	}
	inner := cfg.Fleet.Router
	if inner == nil {
		inner = fleet.Uniform{}
	}
	m.mask = &maskRouter{m: m, inner: inner}
	fcfg := cfg.Fleet
	fcfg.Router = m.mask
	f, err := fleet.New(fcfg, specs...)
	if err != nil {
		return nil, err
	}
	m.f = f
	for id := 0; id < f.Slots(); id++ {
		m.trk = append(m.trk, &tracker{state: Healthy})
		m.logEvent(id, "join", "bootstrap")
	}
	return m, nil
}

// Fleet exposes the managed fleet (read-mostly: step it only through
// the manager).
func (m *Manager) Fleet() *fleet.Fleet { return m.f }

// Close releases the managed fleet's worker pool.
func (m *Manager) Close() { m.f.Close() }

// stateOf reports machine id's control-plane state.
func (m *Manager) stateOf(id int) State {
	if id < 0 || id >= len(m.trk) {
		return Evicted
	}
	return m.trk[id].state
}

// Membership returns the membership log so far.
func (m *Manager) Membership() []MembershipEvent { return m.log }

// Transitions returns the health transition log so far.
func (m *Manager) Transitions() []Transition { return m.trans }

// SliceRecord is the fleet's slice record annotated with the control
// plane's view of it.
type SliceRecord struct {
	fleet.SliceRecord
	// States is the control-plane state of each Members entry at the
	// instant the slice was routed, index-aligned with Members.
	States []string
	// Serving counts the machines with routing weight this slice.
	Serving int
	// UnroutedQPS is offered load the mask could not place because no
	// machine was serving.
	UnroutedQPS float64
}

// Step runs one managed decision quantum: reconcile health, autoscale,
// then step the fleet.
func (m *Manager) Step(offered, budgetW float64) (SliceRecord, error) {
	if err := m.reconcile(); err != nil {
		return SliceRecord{}, err
	}
	if err := m.autoscale(offered, budgetW); err != nil {
		return SliceRecord{}, err
	}
	m.unrouted = 0
	frec, err := m.f.Step(offered, budgetW)
	if err != nil {
		return SliceRecord{}, err
	}
	rec := SliceRecord{SliceRecord: frec, UnroutedQPS: m.unrouted}
	for _, id := range frec.Members {
		st := m.trk[id].state
		rec.States = append(rec.States, st.String())
		if st.serving() {
			rec.Serving++
		}
	}
	if m.obs.Enabled() {
		m.obs.Set(obs.MetricCtrlServing, obs.NoLabels, float64(rec.Serving))
		if rec.UnroutedQPS > 0 {
			m.obs.Add(obs.MetricCtrlUnroutedQPS, obs.NoLabels, rec.UnroutedQPS)
		}
	}
	m.recs = append(m.recs, rec)
	m.slice++
	return rec, nil
}

// Run executes slices managed quanta under cluster-level load and
// budget patterns, like fleet.Run but through the control plane.
// Offered load tracks the full fleet capacity (active machines), so a
// quarantine shows up as pressure on the survivors — exactly the
// brownout a real cluster sees.
func (m *Manager) Run(slices int, load harness.LoadPattern, budget harness.BudgetPattern) (*Result, error) {
	if slices <= 0 {
		return nil, fmt.Errorf("ctrlplane: non-positive slice count %d", slices)
	}
	if load == nil || budget == nil {
		return nil, fmt.Errorf("ctrlplane: nil load or budget pattern")
	}
	for sl := 0; sl < slices; sl++ {
		t := m.f.Now()
		if _, err := m.Step(load(t)*m.f.CapacityQPS(), budget(t)*m.f.RefPowerW()); err != nil {
			return nil, err
		}
	}
	return m.Result(), nil
}

// reconcile advances every active machine's health state from its
// last-slice telemetry, in id order.
func (m *Manager) reconcile() error {
	tele := m.f.Telemetry()
	for _, id := range m.f.Active() {
		tr := m.trk[id]
		if tr.state == Draining {
			tr.drainLeft--
			if tr.drainLeft <= 0 {
				if err := m.evict(id, tr.drainReason); err != nil {
					return err
				}
			}
			continue
		}
		tl := tele[id]
		if !tl.Valid {
			continue
		}
		// The health signal: the same slice outcomes the obs subsystem
		// traces as qos.violation, core.degraded and fault telemetry.
		bad := tl.Violated || tl.Degraded || tl.FailedCores > 0
		if bad {
			tr.bad++
			tr.good = 0
		} else {
			tr.good++
			tr.bad = 0
		}
		switch tr.state {
		case Healthy:
			if tr.bad >= m.health.SuspectAfter {
				m.transition(id, Suspect, "bad-slices")
			}
		case Suspect:
			if tr.bad >= m.health.QuarantineAfter {
				m.transition(id, Quarantined, "bad-slices")
			} else if tr.good >= m.health.RecoverAfter {
				m.transition(id, Healthy, "recovered")
			}
		case Quarantined:
			if tr.bad >= m.health.DrainAfter {
				m.startDrain(id, "unrecovered")
			} else if tr.good >= m.health.ReleaseAfter {
				m.transition(id, Probation, "released")
			}
		case Probation:
			if tr.bad >= 1 {
				m.transition(id, Quarantined, "probation-failed")
			} else if tr.good >= m.health.ProbationAfter {
				m.transition(id, Healthy, "probation-passed")
			}
		}
	}
	return nil
}

// autoscale closes the loop on utilization: offered load against the
// serving machines' capacity, debounced, with a power-headroom gate on
// growth.
func (m *Manager) autoscale(offered, budgetW float64) error {
	if m.cooldown > 0 {
		m.cooldown--
	}
	capQPS, serving := 0.0, 0
	refW := 0.0
	tele := m.f.Telemetry()
	for _, id := range m.f.Active() {
		if m.trk[id].state.serving() {
			capQPS += tele[id].MaxQPS
			serving++
		}
		refW += tele[id].RefMaxPowerW
	}
	over := capQPS <= 0 && offered > 0 // nothing serving: always pressure
	under := false
	if capQPS > 0 {
		util := offered / capQPS
		over = util > m.scale.UpUtil
		under = util < m.scale.DownUtil
	}
	switch {
	case over:
		m.upStreak++
		m.downStreak = 0
	case under:
		m.downStreak++
		m.upStreak = 0
	default:
		m.upStreak, m.downStreak = 0, 0
	}

	if m.upStreak >= m.scale.UpAfter && m.cooldown == 0 && m.scale.Provision != nil &&
		(m.scale.MaxMachines == 0 || serving < m.scale.MaxMachines) {
		// Power headroom: admitting another machine of roughly average
		// reference power must leave the budget covering MinBudgetFrac
		// of the grown fleet.
		est := refW
		if n := m.f.Size(); n > 0 {
			est = refW / float64(n)
		}
		if budgetW >= m.scale.MinBudgetFrac*(refW+est) {
			id, err := m.provision("scale-up")
			if err != nil {
				return err
			}
			m.emitScale("up", id, offered, capQPS)
			m.cooldown = m.scale.Cooldown
			m.upStreak = 0
		}
	}
	if m.downStreak >= m.scale.DownAfter && m.cooldown == 0 && serving > m.scale.MinMachines {
		// Drain the highest-id healthy machine — the autoscaler's most
		// recent addition first, and never a machine mid-recovery.
		victim := -1
		for _, id := range m.f.Active() {
			if m.trk[id].state == Healthy {
				victim = id
			}
		}
		if victim >= 0 {
			m.startDrain(victim, "scale-down")
			m.emitScale("down", victim, offered, capQPS)
			m.cooldown = m.scale.Cooldown
			m.downStreak = 0
		}
	}
	return nil
}

// provision admits a new machine through the factory; it starts on
// probation.
func (m *Manager) provision(reason string) (int, error) {
	id := m.f.Slots()
	spec, err := m.scale.Provision(id, m.seeds.Uint64())
	if err != nil {
		return 0, fmt.Errorf("ctrlplane: provision machine %d: %w", id, err)
	}
	got, err := m.f.Attach(spec)
	if err != nil {
		return 0, fmt.Errorf("ctrlplane: attach machine %d: %w", id, err)
	}
	if m.warm != nil {
		// Warm-start the successor before its first slice: scale-ups and
		// health replacements inherit the fleet's learned model instead
		// of re-paying the sampling phase.
		m.warm.WarmStartMachine(got, spec.Scheduler)
	}
	m.trk = append(m.trk, &tracker{state: Probation})
	m.logEvent(got, "join", reason)
	if m.obs.Enabled() {
		m.obs.Add(obs.MetricCtrlJoins, obs.NoLabels, 1)
		m.obs.Emit(obs.Instant(obs.EventJoin, m.f.Now()).WithMachine(obs.ClusterMachine).
			WithSlice(m.slice).With("machine", obs.Itoa(got)).With("reason", reason))
	}
	return got, nil
}

// startDrain moves a machine into the bounded drain: zero routing
// weight, DrainSlices quanta to finish in-flight work, then eviction.
func (m *Manager) startDrain(id int, reason string) {
	m.transition(id, Draining, reason)
	tr := m.trk[id]
	tr.drainLeft = m.health.DrainSlices
	tr.drainReason = reason
}

// evict removes a machine from the fleet and, for health-driven
// evictions, provisions its replacement.
func (m *Manager) evict(id int, reason string) error {
	m.transition(id, Evicted, reason)
	if err := m.f.Evict(id); err != nil {
		// Unreachable by construction (the tracker only drains active
		// machines); keep the log honest if it ever happens.
		reason = reason + ": " + err.Error()
	}
	m.logEvent(id, "evict", reason)
	if m.obs.Enabled() {
		m.obs.Add(obs.MetricCtrlEvictions, obs.NoLabels, 1)
		m.obs.Emit(obs.Instant(obs.EventEvict, m.f.Now()).WithMachine(obs.ClusterMachine).
			WithSlice(m.slice).With("machine", obs.Itoa(id)).With("reason", reason))
	}
	if reason != "scale-down" && m.scale.ReplaceEvicted && m.scale.Provision != nil {
		if _, err := m.provision("replace:" + obs.Itoa(id)); err != nil {
			return err
		}
	}
	return nil
}

// transition records a state change and emits its instant.
func (m *Manager) transition(id int, to State, reason string) {
	tr := m.trk[id]
	from := tr.state
	tr.state = to
	tr.bad, tr.good = 0, 0
	m.trans = append(m.trans, Transition{
		Slice: m.slice, T: m.f.Now(), Machine: id,
		From: from.String(), To: to.String(), Reason: reason,
	})
	if m.obs.Enabled() {
		m.obs.Add(obs.MetricCtrlTransitions, obs.Label("to", to.String()), 1)
		m.obs.Emit(obs.Instant(obs.EventHealth, m.f.Now()).WithMachine(obs.ClusterMachine).
			WithSlice(m.slice).With("machine", obs.Itoa(id)).
			With("from", from.String()).With("to", to.String()).With("reason", reason))
	}
}

func (m *Manager) logEvent(id int, event, reason string) {
	m.log = append(m.log, MembershipEvent{
		Slice: m.slice, T: m.f.Now(), Machine: id, Event: event, Reason: reason,
	})
}

func (m *Manager) emitScale(dir string, id int, offered, capQPS float64) {
	if !m.obs.Enabled() {
		return
	}
	util := 0.0
	if capQPS > 0 {
		util = offered / capQPS
	}
	m.obs.Add(obs.MetricCtrlScaleOps, obs.Label("dir", dir), 1)
	m.obs.Emit(obs.Instant(obs.EventScale, m.f.Now()).WithMachine(obs.ClusterMachine).
		WithSlice(m.slice).With("dir", dir).With("machine", obs.Itoa(id)).
		With("util", obs.Float(util)))
}

// Result snapshots the managed run: the fleet result, the annotated
// slice records, both logs, and each slot's final state.
type Result struct {
	Fleet       *fleet.Result
	Slices      []SliceRecord
	Membership  []MembershipEvent
	Transitions []Transition
	// Final is each machine slot's state when the run ended, by id.
	Final []string
}

// Result builds the current snapshot.
func (m *Manager) Result() *Result {
	res := &Result{
		Fleet:       m.f.Result(),
		Slices:      append([]SliceRecord(nil), m.recs...),
		Membership:  append([]MembershipEvent(nil), m.log...),
		Transitions: append([]Transition(nil), m.trans...),
	}
	for _, tr := range m.trk {
		res.Final = append(res.Final, tr.state.String())
	}
	return res
}

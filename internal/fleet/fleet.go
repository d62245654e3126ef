// Package fleet simulates a cluster of CuttleSys machines behind a
// traffic router under one shared power budget — the production
// setting the ROADMAP targets, where a datacenter serves one
// latency-critical service from many reconfigurable CMPs and a
// cluster-level power cap must be split across them.
//
// Each decision quantum (harness.SliceDur) the fleet:
//
//  1. asks its Router to split the offered cluster QPS across
//     machines, using last-slice telemetry (tail latency, failures,
//     degraded mode) — uniform, least-loaded and QoS-aware policies
//     are provided;
//  2. asks its Arbiter to partition the cluster watt cap, generalising
//     §VIII-D's per-machine budget patterns to cross-machine
//     arbitration from reported headroom;
//  3. steps every machine one timeslice in parallel through
//     harness.Driver, merging results in machine index order so the
//     outcome is byte-identical regardless of goroutine interleaving
//     (the determinism invariant, DESIGN.md §7);
//  4. folds per-machine slice records into fleet metrics: throughput,
//     per-machine tail latency, QoS-met fraction and power.
//
// Determinism under parallelism follows three rules. All cross-machine
// reductions (routing weights, budget shares, fleet aggregates) run
// serially in machine index order before or after the parallel
// section. The parallel section touches only per-machine state plus
// one pre-sized result cell per machine. And telemetry always lags one
// slice: machine i's inputs for slice t depend only on slice t-1
// outputs, never on a sibling's slice-t progress.
package fleet

import (
	"fmt"
	"math"

	"cuttlesys/internal/harness"
	"cuttlesys/internal/obs"
	"cuttlesys/internal/rng"
	"cuttlesys/internal/sim"
)

// Telemetry is one machine's router- and arbiter-visible state: static
// capacity plus the outcome of its most recent timeslice. It is the
// only cross-machine information the policies may use, and it always
// describes the previous slice — the current slice is still being
// computed when routing decisions are made.
type Telemetry struct {
	// Machine is the node's index in the fleet.
	Machine int
	// MaxQPS is the machine's primary service capacity.
	MaxQPS float64
	// RefMaxPowerW is the machine's reference maximum power draw.
	RefMaxPowerW float64
	// Valid is false until the machine completes its first slice; the
	// dynamic fields below are meaningless while it is false.
	Valid bool
	// QPS is the load the router offered the machine last slice.
	QPS float64
	// P99Ms and QoSMs are last slice's tail latency and target.
	P99Ms float64
	QoSMs float64
	// Violated reports whether the machine missed QoS last slice.
	Violated bool
	// AvgPowerW and BudgetW are last slice's draw and allotment.
	AvgPowerW float64
	BudgetW   float64
	// FailedCores counts cores lost to fail-stop faults last slice.
	FailedCores int
	// Degraded reports the scheduler's degraded (safe) mode.
	Degraded bool
}

// NodeSpec describes one machine joining a fleet: its simulator, the
// scheduler driving it, and an optional per-machine fault injector so
// routing policies can be exercised against a degraded node.
type NodeSpec struct {
	Machine   *sim.Machine
	Scheduler harness.Scheduler
	Injector  harness.FaultInjector
}

// Config tunes a Fleet. Zero values select the uniform router, the
// capacity-proportional arbiter, and one stepping worker per machine.
type Config struct {
	// Router splits offered QPS across machines each slice.
	Router Router
	// Arbiter splits the cluster power budget each slice.
	Arbiter Arbiter
	// Workers bounds the goroutines stepping machines in parallel;
	// <= 0 means one per machine. The value never affects results,
	// only wall-clock time.
	Workers int
	// Collector receives observability output. Each machine's driver
	// gets an obs.ForMachine view (events and series stamped with the
	// machine index); fleet-level routing, arbitration and aggregates
	// are emitted at cluster scope. Nil disables observability at zero
	// cost. Simulated-time output stays byte-deterministic only if the
	// schedulers themselves are deterministic per slice.
	Collector obs.Collector
	// Share, when non-nil, is invoked after every slice's index-ordered
	// fold (serially, at cluster scope) with the active membership —
	// the hook the model-sharing plane (internal/modelplane) uses to
	// collect factor publications and fold fleet aggregates. Because it
	// runs in the serial section and members arrive in ascending id
	// order, anything it computes inherits the fleet's byte-determinism
	// at any GOMAXPROCS. Nil (the default) disables sharing at zero
	// cost.
	Share SharePlane
}

// ShareMember is one active machine as seen by the SharePlane hook:
// its stable id plus the scheduler stepping it, which the plane
// type-asserts for factor export/import capability.
type ShareMember struct {
	ID        int
	Scheduler harness.Scheduler
}

// SharePlane receives the post-fold hook each slice. slice is the
// fleet slice index just completed, now its start time in seconds, and
// members the machines stepped, ascending by id.
type SharePlane interface {
	AfterSlice(slice int, now float64, members []ShareMember)
}

// node is one machine's private state. Its index in Fleet.nodes is the
// machine's stable identity for the fleet's whole life: a machine that
// leaves keeps its slot (and its accumulated slice records), so ids in
// telemetry, traces and membership logs never shift under churn.
type node struct {
	d         *harness.Driver
	inj       harness.FaultInjector
	maxQPS    float64
	maxPowerW float64
	qosMs     float64
	recs      history[harness.SliceRecord]
	// left marks an evicted machine: it no longer receives traffic,
	// budget or stepping, but its history stays addressable by id.
	left bool
}

// Fleet is a cluster of CuttleSys machines stepped in lockstep.
// Membership is dynamic: machines join via Attach and leave via Evict
// between slices, and each slice routes, arbitrates and steps only the
// active set. All membership operations are serial (never inside the
// parallel stepping section), so runs remain byte-deterministic.
type Fleet struct {
	nodes   []*node
	router  Router
	arbiter Arbiter
	workers int
	now     float64
	tele    []Telemetry
	slices  history[SliceRecord]
	obs     obs.Collector
	share   SharePlane

	// Per-step scratch, valid until the next Step: the active machines'
	// telemetry, load fractions and share-plane members, and stepAll's
	// inputs and per-machine result cells. stepFn is stepOne bound once,
	// so fanning out allocates no closure.
	actTele  []Telemetry
	loadFrac []float64
	members  []ShareMember
	in       stepInputs
	stepFn   func(w, k int)
}

// stepInputs is one stepAll fan-out: machine ids[k] steps with load
// qps[k], fraction loadFrac[k] and budget budgets[k] into recs[k] and
// errs[k].
type stepInputs struct {
	ids                    []int
	qps, loadFrac, budgets []float64
	recs                   []harness.SliceRecord
	errs                   []error
}

// New assembles a fleet. Every machine must host exactly one
// latency-critical service (the router shards a single service's
// traffic) and have its own simulator instance.
func New(cfg Config, specs ...NodeSpec) (*Fleet, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("fleet: no machines")
	}
	f := &Fleet{
		router:  cfg.Router,
		arbiter: cfg.Arbiter,
		workers: cfg.Workers,
		obs:     obs.OrNop(cfg.Collector),
		share:   cfg.Share,
	}
	if f.router == nil {
		f.router = Uniform{}
	}
	if f.arbiter == nil {
		f.arbiter = Proportional{}
	}
	f.stepFn = f.stepOne
	for _, spec := range specs {
		if _, err := f.Attach(spec); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Attach admits a machine to the fleet and returns its stable id. On a
// running fleet the new machine is fast-forwarded to the fleet clock
// (it executes nothing for the skipped time) and first appears in the
// next slice's routing and arbitration; its telemetry stays invalid
// until it completes that slice. Validation matches New: one
// latency-critical service, a private simulator instance.
func (f *Fleet) Attach(spec NodeSpec) (int, error) {
	id := len(f.nodes)
	if spec.Machine == nil {
		return 0, fmt.Errorf("fleet: machine %d is nil", id)
	}
	for prev, nd := range f.nodes {
		if nd.d.Machine() == spec.Machine {
			return 0, fmt.Errorf("fleet: machine %d reuses machine %d's simulator", id, prev)
		}
	}
	if spec.Machine.LC() == nil {
		return 0, fmt.Errorf("fleet: machine %d hosts no latency-critical service", id)
	}
	if extra := len(spec.Machine.Services()) - 1; extra > 0 {
		return 0, fmt.Errorf("fleet: machine %d hosts %d extra services; the router shards a single service", id, extra)
	}
	d, err := harness.NewDriver(spec.Machine, spec.Scheduler, spec.Injector)
	if err != nil {
		return 0, fmt.Errorf("fleet: machine %d: %w", id, err)
	}
	d.SetCollector(obs.ForMachine(f.obs, id))
	spec.Machine.FastForward(f.now)
	lc := spec.Machine.LC()
	f.nodes = append(f.nodes, &node{
		d:         d,
		inj:       spec.Injector,
		maxQPS:    lc.MaxQPS,
		maxPowerW: spec.Machine.MaxPowerW(),
		qosMs:     lc.QoSTargetMs,
	})
	f.tele = append(f.tele, Telemetry{
		Machine: id, MaxQPS: lc.MaxQPS, RefMaxPowerW: spec.Machine.MaxPowerW(),
	})
	return id, nil
}

// Evict removes machine id from the stepping set: it receives no
// further traffic or budget and its fault injector is detached. The
// slot, its telemetry snapshot and its slice history remain
// addressable by id; the simulator is not reusable in this fleet.
func (f *Fleet) Evict(id int) error {
	if id < 0 || id >= len(f.nodes) {
		return fmt.Errorf("fleet: evict of unknown machine %d", id)
	}
	nd := f.nodes[id]
	if nd.left {
		return fmt.Errorf("fleet: machine %d already evicted", id)
	}
	nd.d.Detach()
	nd.left = true
	return nil
}

// Active returns the ids of machines currently in the stepping set, in
// ascending id order — the order routing, arbitration and per-slice
// record arrays follow.
func (f *Fleet) Active() []int {
	ids := make([]int, 0, len(f.nodes))
	for i, nd := range f.nodes {
		if !nd.left {
			ids = append(ids, i)
		}
	}
	return ids
}

// Seeds derives n machine seeds from one fleet seed so sibling
// machines never share an RNG stream (the seed discipline of
// DESIGN.md §2 extended across a cluster).
func Seeds(seed uint64, n int) []uint64 {
	r := rng.New(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

// Size returns the number of active machines. Slots reports the total
// slot count including evicted machines.
func (f *Fleet) Size() int {
	n := 0
	for _, nd := range f.nodes {
		if !nd.left {
			n++
		}
	}
	return n
}

// Slots returns the number of machine slots ever admitted, including
// evicted ones — the exclusive upper bound on machine ids.
func (f *Fleet) Slots() int { return len(f.nodes) }

// Scheduler returns the scheduler stepping machine id. Evicted slots
// keep theirs, so a run's per-machine controller state stays readable
// after it ends.
func (f *Fleet) Scheduler(id int) harness.Scheduler { return f.nodes[id].d.Scheduler() }

// CapacityQPS is the fleet's aggregate service capacity — the sum of
// every active machine's max QPS, the reference for load fractions.
func (f *Fleet) CapacityQPS() float64 {
	sum := 0.0
	for _, nd := range f.nodes {
		if !nd.left {
			sum += nd.maxQPS
		}
	}
	return sum
}

// RefPowerW is the fleet's aggregate reference maximum power over
// active machines — the reference for cluster budget fractions.
func (f *Fleet) RefPowerW() float64 {
	sum := 0.0
	for _, nd := range f.nodes {
		if !nd.left {
			sum += nd.maxPowerW
		}
	}
	return sum
}

// Now returns the fleet clock in seconds.
func (f *Fleet) Now() float64 { return f.now }

// Telemetry returns the latest per-slot telemetry (read-only), indexed
// by stable machine id. Evicted machines keep their last snapshot;
// routers and arbiters only ever see the active subset.
func (f *Fleet) Telemetry() []Telemetry { return f.tele }

// SurfaceStats sums every machine's surface-table work counters:
// staged-grid renders and fast-path lookups served.
func (f *Fleet) SurfaceStats() (builds, lookups uint64) {
	for _, nd := range f.nodes {
		b, l := nd.d.Machine().SurfaceStats()
		builds += b
		lookups += l
	}
	return builds, lookups
}

// Close detaches every machine's fault injector. The fleet remains
// usable for inspection but must not be stepped again.
func (f *Fleet) Close() {
	for _, nd := range f.nodes {
		nd.d.Detach()
	}
}

// SliceRecord captures one fleet decision quantum.
type SliceRecord struct {
	// T is the slice start time in seconds.
	T float64
	// OfferedQPS and BudgetW are the cluster-level inputs, before any
	// per-machine fault perturbation.
	OfferedQPS float64
	BudgetW    float64
	// Members are the stable ids of the machines stepped this slice, in
	// ascending order; every per-machine array below is index-aligned
	// with it.
	Members []int
	// NodeQPS and NodeBudgetW are the per-machine splits actually
	// applied (after per-machine fault factors).
	NodeQPS     []float64
	NodeBudgetW []float64
	// NodeP99Ms and NodeViolated are per-machine tail outcomes.
	NodeP99Ms    []float64
	NodeViolated []bool
	// QoSMetFrac is the fraction of machines that met QoS.
	QoSMetFrac float64
	// PowerW is the fleet's aggregate average power draw.
	PowerW float64
	// TotalInstrB is the fleet's batch throughput this slice.
	TotalInstrB float64
	// MeanGmeanBIPS averages the per-machine batch gmean BIPS.
	MeanGmeanBIPS float64
	// OverheadSerialSec sums every machine's scheduling compute — the
	// controller cost if one sequential controller served the fleet.
	// OverheadCritSec is the maximum — the critical path when
	// controllers run in parallel. Their ratio is the modeled
	// controller speedup of parallel stepping.
	OverheadSerialSec float64
	OverheadCritSec   float64
}

// CheckStep is the input rule of one decision quantum: offered load
// finite and ≥ 0 queries/s, budget finite and > 0 W. Fleet.Step and
// the control plane's Step check it before any state changes, so a
// rejected call leaves the fleet and its controllers as they were.
func CheckStep(offered, budgetW float64) error {
	if !(offered >= 0) || math.IsInf(offered, 1) {
		return fmt.Errorf("fleet: invalid offered load %v", offered)
	}
	if !(budgetW > 0) || math.IsInf(budgetW, 1) {
		return fmt.Errorf("fleet: invalid budget %v W", budgetW)
	}
	return nil
}

// Step runs one decision quantum: route offered QPS, split budgetW,
// step every machine in parallel, and fold the results.
func (f *Fleet) Step(offered, budgetW float64) (SliceRecord, error) {
	if err := CheckStep(offered, budgetW); err != nil {
		return SliceRecord{}, err
	}
	act := f.Active()
	n := len(act)
	if n == 0 {
		return SliceRecord{}, fmt.Errorf("fleet: no active machines")
	}
	t := f.now
	traced := f.obs.Enabled()
	sliceWall := obs.BeginWall(f.obs)

	// Routing and arbitration see only the active machines, in id
	// order; Telemetry.Machine carries the stable id so stateful
	// policies survive membership churn.
	actTele := f.actTele[:0]
	for _, id := range act {
		actTele = append(actTele, f.tele[id])
	}
	f.actTele = actTele
	qpsShares := f.router.Route(offered, actTele)
	if len(qpsShares) != n {
		return SliceRecord{}, fmt.Errorf("fleet: router %s returned %d shares for %d machines",
			f.router.Name(), len(qpsShares), n)
	}
	budgets := f.arbiter.Split(budgetW, actTele)
	if len(budgets) != n {
		return SliceRecord{}, fmt.Errorf("fleet: arbiter %s returned %d shares for %d machines",
			f.arbiter.Name(), len(budgets), n)
	}
	if traced {
		sl := f.slices.len()
		f.obs.Emit(obs.Instant(obs.EventRoute, t).WithMachine(obs.ClusterMachine).
			WithSlice(sl).With("router", f.router.Name()))
		f.obs.Emit(obs.Instant(obs.EventArbitrate, t).WithMachine(obs.ClusterMachine).
			WithSlice(sl).With("arbiter", f.arbiter.Name()))
	}

	// Per-machine inputs, perturbed by that machine's faults exactly as
	// the single-machine harness would: flash crowds scale the routed
	// share and budget drops the allotment, both read at the machine's
	// own clock, which its hardware faults and slice records use too.
	// The shares become the record's NodeQPS and NodeBudgetW, scaled in
	// place.
	qps := qpsShares
	loadFrac := f.loadFrac[:0]
	for k, id := range act {
		nd := f.nodes[id]
		if qpsShares[k] < 0 || math.IsNaN(qpsShares[k]) {
			return SliceRecord{}, fmt.Errorf("fleet: router %s: invalid share %v for machine %d",
				f.router.Name(), qpsShares[k], id)
		}
		if budgets[k] <= 0 || math.IsNaN(budgets[k]) {
			return SliceRecord{}, fmt.Errorf("fleet: arbiter %s: invalid share %v W for machine %d",
				f.arbiter.Name(), budgets[k], id)
		}
		if nd.inj != nil {
			now := nd.d.Machine().Now()
			qps[k] *= nd.inj.LoadFactor(now)
			budgets[k] *= nd.inj.BudgetFactor(now)
		}
		frac := 0.0
		if nd.maxQPS > 0 {
			frac = qps[k] / nd.maxQPS
		}
		loadFrac = append(loadFrac, frac)
	}
	f.loadFrac = loadFrac

	stepWall := obs.BeginWall(f.obs)
	recs, err := f.stepAll(act, qps, loadFrac, budgets)
	stepWall.End(f.obs, "fleet.step")
	if err != nil {
		return SliceRecord{}, err
	}

	// Index-ordered fold: telemetry for the next slice plus this
	// slice's fleet record.
	rec := SliceRecord{
		T: t, OfferedQPS: offered, BudgetW: budgetW,
		Members: act,
		NodeQPS: qps, NodeBudgetW: budgets,
		NodeP99Ms:    make([]float64, n),
		NodeViolated: make([]bool, n),
	}
	met := 0
	for k, id := range act {
		nd := f.nodes[id]
		r := &recs[k]
		nd.recs.add(*r)
		f.tele[id] = Telemetry{
			Machine: id, MaxQPS: nd.maxQPS, RefMaxPowerW: nd.maxPowerW,
			Valid: true, QPS: qps[k],
			P99Ms: r.P99Ms, QoSMs: r.QoSMs, Violated: r.Violated,
			AvgPowerW: r.AvgPowerW, BudgetW: budgets[k],
			FailedCores: r.FailedCores, Degraded: r.Degraded,
		}
		rec.NodeP99Ms[k] = r.P99Ms
		rec.NodeViolated[k] = r.Violated
		if !r.Violated {
			met++
		}
		rec.PowerW += r.AvgPowerW
		rec.TotalInstrB += r.TotalInstrB
		rec.MeanGmeanBIPS += r.GmeanBIPS / float64(n)
		rec.OverheadSerialSec += r.OverheadSec
		if r.OverheadSec > rec.OverheadCritSec {
			rec.OverheadCritSec = r.OverheadSec
		}
	}
	rec.QoSMetFrac = float64(met) / float64(n)
	if traced {
		f.emitFleetTelemetry(&rec, f.slices.len())
	}
	if f.share != nil {
		// Serial section, ascending id order: the share plane's folds
		// inherit the fleet's determinism discipline.
		members := f.members[:0]
		for _, id := range act {
			members = append(members, ShareMember{ID: id, Scheduler: f.nodes[id].d.Scheduler()})
		}
		f.members = members
		f.share.AfterSlice(f.slices.len(), t, members)
	}
	f.slices.add(rec)
	f.now += harness.SliceDur
	sliceWall.End(f.obs, "fleet.slice")
	return rec, nil
}

// Run executes slices decision quanta under cluster-level load and
// budget patterns: load yields the offered fraction of CapacityQPS,
// budget the fraction of RefPowerW, both sampled at the fleet clock.
// Repeated Runs continue the clock and accumulate into Result.
func (f *Fleet) Run(slices int, load harness.LoadPattern, budget harness.BudgetPattern) (*Result, error) {
	if slices <= 0 {
		return nil, fmt.Errorf("fleet: non-positive slice count %d", slices)
	}
	if load == nil {
		return nil, fmt.Errorf("fleet: nil load pattern")
	}
	if budget == nil {
		return nil, fmt.Errorf("fleet: nil budget pattern")
	}
	// Capacity and reference power are resampled every slice: a caller
	// (or control plane) may change membership between Runs or steps.
	for sl := 0; sl < slices; sl++ {
		if _, err := f.Step(load(f.now)*f.CapacityQPS(), budget(f.now)*f.RefPowerW()); err != nil {
			return nil, err
		}
	}
	return f.Result(), nil
}

// Result snapshots the fleet's accumulated history: the fleet-level
// slice records plus one harness.Result per machine slot (indexed by
// stable id, evicted machines included with their partial histories),
// so every single-machine aggregate remains available per node.
func (f *Fleet) Result() *Result {
	res := &Result{
		Router:  f.router.Name(),
		Arbiter: f.arbiter.Name(),
		Slices:  f.slices.flat(),
	}
	for _, nd := range f.nodes {
		res.Nodes = append(res.Nodes, &harness.Result{
			Scheduler: nd.d.Scheduler().Name(),
			Slices:    nd.recs.flat(),
		})
	}
	return res
}

// Result aggregates a fleet run.
type Result struct {
	Router  string
	Arbiter string
	Slices  []SliceRecord
	// Nodes holds each machine's single-machine result, index-aligned
	// with the fleet's machines.
	Nodes []*harness.Result
}

// QoSMetFraction is the fraction of (machine, slice) cells that met
// QoS over the whole run.
func (r *Result) QoSMetFraction() float64 {
	if len(r.Slices) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range r.Slices {
		sum += s.QoSMetFrac
	}
	return sum / float64(len(r.Slices))
}

// TotalInstrB is the fleet's batch throughput over the run, in
// billions of instructions.
func (r *Result) TotalInstrB() float64 {
	sum := 0.0
	for _, s := range r.Slices {
		sum += s.TotalInstrB
	}
	return sum
}

// MeanPowerW is the fleet's mean aggregate power draw.
func (r *Result) MeanPowerW() float64 {
	if len(r.Slices) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range r.Slices {
		sum += s.PowerW
	}
	return sum / float64(len(r.Slices))
}

// WorstP99Ratio is the worst per-machine p99/QoS ratio over the run.
func (r *Result) WorstP99Ratio() float64 {
	worst := 0.0
	for _, nr := range r.Nodes {
		if v := nr.WorstP99Ratio(); v > worst {
			worst = v
		}
	}
	return worst
}

// QoSViolations counts (machine, slice) QoS misses over the run.
func (r *Result) QoSViolations() int {
	n := 0
	for _, nr := range r.Nodes {
		n += nr.QoSViolations()
	}
	return n
}

// ModeledControllerSpeedup is total serial scheduling compute divided
// by the parallel critical path — the controller-side speedup a
// cluster gains by running one scheduler per machine concurrently
// instead of a single sequential controller. It is derived from the
// schedulers' own charged overheads (Table II's modeled costs), so it
// is deterministic and host-independent, unlike a wall-clock timing.
func (r *Result) ModeledControllerSpeedup() float64 {
	serial, crit := 0.0, 0.0
	for _, s := range r.Slices {
		serial += s.OverheadSerialSec
		crit += s.OverheadCritSec
	}
	if crit == 0 {
		return 1
	}
	return serial / crit
}

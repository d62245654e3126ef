package scenario

import (
	"bytes"
	"cmp"
	"fmt"
	"io/fs"
	"math"

	"cuttlesys/internal/core"
	"cuttlesys/internal/ctrlplane"
	"cuttlesys/internal/fault"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/obs"
	"cuttlesys/internal/rng"
	"cuttlesys/internal/workload"
)

// ProvisionSalt derives the control plane's provisioning seed stream
// from the run seed, so machines provisioned mid-run never share a
// stream with the initial fleet (whose seeds come from fleet.Seeds).
const ProvisionSalt = 0x0b5e55ed

// Options completes a spec into a concrete run. Zero-valued fields
// defer to the spec's own declarations; a field set here overrides
// the spec (the CLI-over-spec-over-default precedence of DESIGN.md
// §13). Seed is the run seed; FS resolves trace files for replay
// clauses (specs.FS for the embedded library, os.DirFS for specs on
// disk); Collector, when set, receives the run's trace events and
// metrics: the built fleet's (fleet.Config.Collector) or RunMachine's.
type Options struct {
	Machines  int
	Slices    int
	Service   string
	Load      float64
	Cap       float64
	Seed      uint64
	FS        fs.FS
	Collector obs.Collector
}

// CompiledClient is one traffic clause lowered to a load pattern.
// Pattern yields the client's offered fraction of fleet capacity at a
// simulation time; MeanFrac is its average over the run's quanta (a
// reporting convenience).
type CompiledClient struct {
	Name      string
	SLO       string
	Workloads []string
	Pattern   harness.LoadPattern
	MeanFrac  float64
}

// Compiled is a spec resolved against Options: concrete geometry,
// the lowered load and budget patterns, and builders for the fleet or
// managed control plane the spec describes. All stochastic draws
// happen inside Compile (serially, from streams keyed by the run seed
// XOR the spec hash and the client index); the compiled patterns are
// pure lookups.
type Compiled struct {
	Spec     *Spec
	Hash     uint64
	Seed     uint64
	Machines int
	Slices   int
	Service  string
	Load     float64
	Cap      float64
	Span     float64

	LoadPat   harness.LoadPattern
	BudgetPat harness.BudgetPattern
	Clients   []CompiledClient

	// Managed selects the control-plane driver (the spec has a control
	// clause) over the bare fleet.
	Managed bool

	collector obs.Collector
	// The service, the mix clause's batch pool and the scheduler.
	lc    *workload.Profile
	pool  []*workload.Profile
	sched SchedulerDef
}

// Compile lowers a validated spec against its run options.
func Compile(s *Spec, opt Options) (*Compiled, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	c := &Compiled{Spec: s, Hash: Hash(s), Seed: opt.Seed, Managed: s.Control != nil, collector: opt.Collector}
	if _, _, err := c.Policy(); err != nil {
		return nil, err
	}
	c.Machines, c.Slices = cmp.Or(opt.Machines, s.Machines), cmp.Or(opt.Slices, s.Slices)
	c.Service = cmp.Or(opt.Service, s.Service)
	c.Load, c.Cap = cmp.Or(opt.Load, s.Load.Value()), cmp.Or(opt.Cap, s.Cap.Value())
	switch {
	case c.Machines < 1:
		return nil, fmt.Errorf("scenario %s: needs a positive machine count (spec or options), got %d", s.Name, c.Machines)
	case c.Slices < 1:
		return nil, fmt.Errorf("scenario %s: needs a positive slice count (spec or options), got %d", s.Name, c.Slices)
	case c.Service == "":
		return nil, fmt.Errorf("scenario %s: needs a service (spec or options)", s.Name)
	case c.Load <= 0 || c.Load > 1:
		return nil, fmt.Errorf("scenario %s: load fraction %v out of (0, 1]", s.Name, c.Load)
	case c.Cap <= 0 || c.Cap > 1:
		return nil, fmt.Errorf("scenario %s: cap fraction %v out of (0, 1]", s.Name, c.Cap)
	case s.Mix.Train != core.NTrainBatch || s.Mix.TrainSeed != core.SplitSeed:
		return nil, fmt.Errorf("scenario %s: mix train=%d trainseed=%d: the runtime trains offline on train=%d trainseed=%d, so any other split puts its training applications in the mix pool",
			s.Name, s.Mix.Train, s.Mix.TrainSeed, core.NTrainBatch, core.SplitSeed)
	case s.Mix.Seed != 0 && c.Machines != 1:
		return nil, fmt.Errorf("scenario %s: mix seed= pins one machine, the run has %d", s.Name, c.Machines)
	}
	var err error
	if c.lc, err = workload.ByName(c.Service); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	_, c.pool = workload.SplitTrainTest(core.SplitSeed, core.NTrainBatch)
	if c.sched, err = SchedulerByName(cmp.Or(s.Policy.Scheduler, Schedulers[0].Name)); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	c.Span = float64(c.Slices) * harness.SliceDur

	base := c.Cap
	if s.Budget.Absolute {
		base = 1
	}
	bp, err := compileEnvelope(s.Budget.Kind, &s.Budget.Env, base, c.Span, true)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: budget: %w", s.Name, err)
	}
	c.BudgetPat = harness.BudgetPattern(bp)

	for i := range s.Clients {
		cc, err := c.compileClient(i, opt)
		if err != nil {
			return nil, err
		}
		c.Clients = append(c.Clients, cc)
	}
	if len(c.Clients) == 1 {
		c.LoadPat = c.Clients[0].Pattern
	} else {
		pats := make([]harness.LoadPattern, len(c.Clients))
		for i := range c.Clients {
			pats[i] = c.Clients[i].Pattern
		}
		c.LoadPat = func(t float64) float64 {
			total := 0.0
			for _, p := range pats {
				total += p(t)
			}
			return total
		}
	}
	for i := range c.Clients {
		sum := 0.0
		for k := 0; k < c.Slices; k++ {
			sum += c.Clients[i].Pattern(float64(k) * harness.SliceDur)
		}
		c.Clients[i].MeanFrac = sum / float64(c.Slices)
	}
	return c, nil
}

// compileClient lowers one traffic clause: scale the clause base,
// compile the deterministic envelope, then modulate it with the
// stochastic or trace-replay factor table.
func (c *Compiled) compileClient(idx int, opt Options) (CompiledClient, error) {
	cl := &c.Spec.Clients[idx]
	a := &cl.Arrival
	base := c.Load
	if a.Absolute {
		base = 1
	}
	scaled := cl.Fraction.scale(base)
	env, err := compileEnvelope(a.envelope(), &a.Env, scaled, c.Span, false)
	if err != nil {
		return CompiledClient{}, fmt.Errorf("scenario %s: client %s: %w", c.Spec.Name, cl.Name, err)
	}
	var factors []float64
	switch {
	case a.stochastic() != "":
		r := rng.NewStream(c.Seed^c.Hash, uint64(idx))
		factors = a.factors(r, c.Slices)
	case a.Process == ProcTrace:
		factors, err = c.traceFactors(a, opt.FS)
		if err != nil {
			return CompiledClient{}, fmt.Errorf("scenario %s: client %s: %w", c.Spec.Name, cl.Name, err)
		}
	}
	return CompiledClient{
		Name:      cl.Name,
		SLO:       cl.SLO,
		Workloads: cl.Workloads,
		Pattern:   harness.Modulated(harness.LoadPattern(env), factors),
	}, nil
}

// traceFactors loads, resamples and normalises a replay clause into
// its per-quantum factor table. Degenerate traces are refused up
// front with the file named: an empty CSV or a single-row trace would
// replay as a flat constant, which a constant arrival clause states
// honestly — replaying it from a "trace" almost always means the
// recording or the export step was broken.
func (c *Compiled) traceFactors(a *ArrivalSpec, fsys fs.FS) ([]float64, error) {
	if fsys == nil {
		return nil, fmt.Errorf("trace %q needs a filesystem (Options.FS)", a.Trace.File)
	}
	data, err := fs.ReadFile(fsys, a.Trace.File)
	if err != nil {
		return nil, fmt.Errorf("trace %q: %w", a.Trace.File, err)
	}
	if len(bytes.TrimSpace(data)) == 0 {
		return nil, fmt.Errorf("trace %q is empty", a.Trace.File)
	}
	rows, err := ParseTrace(data)
	if err != nil {
		return nil, fmt.Errorf("trace %q: %w", a.Trace.File, err)
	}
	if len(rows) < 2 {
		return nil, fmt.Errorf("trace %q has %d data row(s); replay needs at least 2", a.Trace.File, len(rows))
	}
	means, err := resampleTrace(rows, a.Trace.Client, c.Slices, harness.SliceDur)
	if err != nil {
		return nil, err
	}
	norm := a.Trace.Norm.Value()
	if norm == 0 {
		norm = tracePeak(rows, a.Trace.Client)
	}
	if norm <= 0 {
		return nil, fmt.Errorf("trace %q client %q has no positive rate to normalise by", a.Trace.File, a.Trace.Client)
	}
	for i := range means {
		means[i] /= norm
	}
	return means, nil
}

// compileEnvelope lowers a deterministic envelope against its level
// base and the run span, reusing the harness pattern constructors so
// a spec clause reproduces the corresponding hard-coded pattern bit
// for bit. Level parameters scale against base, time parameters
// against span; for step, Lo is the resting level outside [from, to)
// and Hi the stepped level inside.
func compileEnvelope(kind string, e *Envelope, base, span float64, budget bool) (func(t float64) float64, error) {
	switch kind {
	case ProcConstant:
		v := e.Rate.scale(base)
		if err := checkLevel("rate", v, budget); err != nil {
			return nil, err
		}
		return harness.ConstantLoad(v), nil
	case ProcStep:
		rest, stepped := e.Lo.scale(base), e.Hi.scale(base)
		from, to := e.From.scale(span), e.To.scale(span)
		if err := checkLevel("lo", rest, budget); err != nil {
			return nil, err
		}
		if err := checkLevel("hi", stepped, budget); err != nil {
			return nil, err
		}
		if to <= from {
			return nil, fmt.Errorf("step window [%v, %v) is empty", from, to)
		}
		if budget {
			return harness.StepBudget(rest, stepped, from, to), nil
		}
		return harness.StepLoad(rest, stepped, from, to), nil
	case ProcDiurnal:
		lo, hi := e.Lo.scale(base), e.Hi.scale(base)
		if !e.Max.isZero() {
			hi = math.Min(hi, e.Max.Value())
		}
		if err := checkLevel("lo", lo, budget); err != nil {
			return nil, err
		}
		if err := checkLevel("hi", hi, budget); err != nil {
			return nil, err
		}
		period := e.Period.scale(span)
		if period <= 0 {
			return nil, fmt.Errorf("diurnal period %v must be positive", period)
		}
		if e.Phase.isZero() {
			return harness.DiurnalLoad(lo, hi, period), nil
		}
		// A phase-shifted swing: the harness constructor pins the trough
		// at t = 0, so the shifted envelope lives here.
		shift := e.Phase.Value()
		return func(t float64) float64 {
			w := (1 - math.Cos(2*math.Pi*(t/period+shift))) / 2
			return lo + (hi-lo)*w
		}, nil
	}
	return nil, fmt.Errorf("unknown envelope kind %q", kind)
}

// checkLevel rejects level values the drivers would refuse later with
// a less helpful error: budgets must stay positive, loads
// non-negative.
func checkLevel(what string, v float64, budget bool) error {
	if budget && v <= 0 {
		return fmt.Errorf("%s resolves to non-positive budget level %v", what, v)
	}
	if !budget && v < 0 {
		return fmt.Errorf("%s resolves to negative load level %v", what, v)
	}
	return nil
}

// Injector composes the fault clauses riding machine id (clause
// targets wrap modulo the fleet size) into one injector seeded by the
// machine seed XOR each clause's salt; nil when no clause targets the
// machine.
func (c *Compiled) Injector(id int, machineSeed uint64) (harness.FaultInjector, error) {
	var parts []fault.Injector
	for i := range c.Spec.Faults {
		f := &c.Spec.Faults[i]
		if f.Machine%c.Machines != id {
			continue
		}
		sch, err := fault.NewSchedule(machineSeed^f.Salt, f.Events...)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: fault clause %d: %w", c.Spec.Name, i, err)
		}
		parts = append(parts, sch)
	}
	return fault.Compose(parts...), nil
}

// healthConfig lowers the control clause's health knobs; zero fields
// keep ctrlplane defaults.
func (c *Compiled) healthConfig() ctrlplane.HealthConfig {
	ctl := c.Spec.Control
	if ctl == nil || !ctl.HasHealth {
		return ctrlplane.HealthConfig{}
	}
	h := ctl.Health
	return ctrlplane.HealthConfig{
		SuspectAfter:    h.SuspectAfter,
		QuarantineAfter: h.QuarantineAfter,
		RecoverAfter:    h.RecoverAfter,
		ReleaseAfter:    h.ReleaseAfter,
		ProbationAfter:  h.ProbationAfter,
		ProbationWeight: h.ProbationWeight.Value(),
		DrainAfter:      h.DrainAfter,
		DrainSlices:     h.DrainSlices,
	}
}

// scaleConfig lowers the control clause's autoscaler knobs. Machine
// bounds are deltas on the run's machine count; the Seed and
// Provision factory are installed by BuildControlPlane.
func (c *Compiled) scaleConfig() ctrlplane.ScaleConfig {
	ctl := c.Spec.Control
	if ctl == nil {
		return ctrlplane.ScaleConfig{}
	}
	cfg := ctrlplane.ScaleConfig{ReplaceEvicted: ctl.ReplaceEvicted}
	if ctl.HasScale {
		sc := ctl.Scale
		cfg.UpUtil = sc.UpUtil.Value()
		cfg.DownUtil = sc.DownUtil.Value()
		cfg.UpAfter = sc.UpAfter
		cfg.DownAfter = sc.DownAfter
		cfg.Cooldown = sc.Cooldown
		cfg.MinMachines = c.Machines + sc.MinAdd
		if sc.MaxAdd > 0 {
			cfg.MaxMachines = c.Machines + sc.MaxAdd
		}
		cfg.MinBudgetFrac = sc.MinBudgetFrac.Value()
	}
	return cfg
}

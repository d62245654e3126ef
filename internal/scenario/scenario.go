// Package scenario is the declarative layer over the fleet and
// control-plane drivers: one spec file plus one seed fully determines
// a run. A spec declares the cluster geometry (machines, timeslices,
// service, batch mix), the routing/arbitration policy, a cluster
// power-budget schedule, per-client traffic clauses — each with a
// pluggable arrival process (constant, poisson, bursty gamma bursts,
// weibull, a diurnal/step envelope composed over any of them, or CSV
// trace replay) — plus fault clauses compiled onto internal/fault
// injectors and control-plane clauses compiled onto internal/ctrlplane.
//
// The format is a small line-oriented text grammar parsed by this
// package with no dependencies beyond the standard library (see
// DESIGN.md §13 for the full grammar). Each clause's keys, canonical
// order, defaults and ranges are declared once, in grammar.go. Parse
// applies every documented default, so a parsed Spec is fully
// explicit; Format renders the canonical form, and Parse∘Format is the
// identity on it.
//
// Determinism: every stochastic arrival draws from an internal/rng
// stream keyed by (run seed XOR spec hash, client index), where the
// spec hash is FNV-1a over the canonical form. Factors are sampled
// serially at compile time, one per decision quantum, so the compiled
// patterns are pure functions of simulated time and runs are
// byte-identical at any GOMAXPROCS. Trace replay draws nothing: rows
// are resampled onto the quantum grid by time-weighted averaging.
//
// Numbers in a spec are kept as written — either a plain decimal or a
// rational p/q — and scaled against their base (the run's load or cap
// fraction, or the run span for times) in the exact operation order
// the legacy hard-coded scenarios used, so the specs/ ports of
// the fleet, ops, obs and warmstart reports' built-in scenarios
// reproduce their BENCH reports byte for byte.
package scenario

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"cuttlesys/internal/fault"
	"cuttlesys/internal/workload"
)

// Num is a spec-file number preserved as written: N when D == 1, the
// rational N/D otherwise. Keeping the two operands apart lets Scale
// reproduce the exact float operation order of the expressions the
// spec replaces (span/3 and span*2/3 rather than a pre-divided
// 0.333…), which the byte-identity of the ported BENCH reports
// depends on. The zero value means "not set".
type Num struct {
	N float64
	D float64
}

// num builds a plain (non-rational) Num.
func num(v float64) Num { return Num{N: v, D: 1} }

// isZero reports whether the number was never set.
func (n Num) isZero() bool { return n.N == 0 && n.D == 0 }

// Value resolves the number against base 1; the unset zero value
// resolves to 0 (never 0/0).
func (n Num) Value() float64 {
	if n.D == 0 || n.D == 1 {
		return n.N
	}
	return n.N / n.D
}

// scale resolves the number against a base: base*N for a plain
// decimal, base*N/D for a rational — both left-to-right, matching the
// legacy scenario expressions operation for operation. The unset zero
// value scales to 0.
func (n Num) scale(base float64) float64 {
	if n.D == 0 || n.D == 1 {
		return base * n.N
	}
	return base * n.N / n.D
}

// String renders the canonical spelling.
func (n Num) String() string {
	if n.D == 1 {
		return formatFloat(n.N)
	}
	return formatFloat(n.N) + "/" + formatFloat(n.D)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Arrival process names.
const (
	ProcConstant = "constant"
	ProcStep     = "step"
	ProcDiurnal  = "diurnal"
	ProcPoisson  = "poisson"
	ProcBursty   = "bursty"
	ProcWeibull  = "weibull"
	ProcTrace    = "trace"
)

// SLO class names.
const (
	SLOCritical = "critical"
	SLOStandard = "standard"
	SLOBatch    = "batch"
)

// Spec is one parsed scenario. Zero geometry fields (machines,
// slices, load, cap, service) mean "not declared"; Compile requires
// each to come from the spec or from its Options.
type Spec struct {
	Name     string
	Describe string
	Service  string
	Machines int
	Slices   int
	Load     Num
	Cap      Num
	Mix      MixSpec
	Policy   PolicySpec
	Budget   BudgetSpec
	Share    *ShareSpec
	Clients  []ClientSpec
	Faults   []FaultSpec
	Control  *ControlSpec
}

// ShareSpec enables the fleet model-sharing plane
// (internal/modelplane): machines publish their trained SGD factors
// every SyncPeriod slices, aggregates fold with weight Decay on the
// previous version, and warm-started machines run FineTune SGD sweeps
// while their QoS scan is credited Confidence clean slices. Decay must
// stay strictly inside (0, 1) — the plane reads 0 as "use the
// default", so the spec grammar refuses the ambiguous spelling.
type ShareSpec struct {
	SyncPeriod int
	Decay      Num
	FineTune   int
	Confidence int
}

// MixSpec declares each machine's batch mix: Jobs drawn per machine
// from the pool left after holding out Train profiles under TrainSeed
// (the offline-characterised split of core.Params).
type MixSpec struct {
	Jobs      int
	Train     int
	TrainSeed uint64
}

// PolicySpec names the fleet router and budget arbiter.
type PolicySpec struct {
	Router  string
	Arbiter string
}

// Envelope is the deterministic shape shared by budget schedules and
// arrival envelopes. Level parameters (Rate, Lo, Hi) scale against the
// clause's base — the run's load or cap fraction, or 1 for absolute
// clauses; time parameters (From, To, Period) always scale against the
// run span, and Phase is a cycle fraction. Max, when set, is an
// absolute ceiling applied to the scaled Hi (the diurnal clamp of the
// legacy fleet sweep).
type Envelope struct {
	Rate   Num
	Lo     Num
	Hi     Num
	Max    Num
	From   Num
	To     Num
	Period Num
	Phase  Num
}

// BudgetSpec is the cluster power-budget schedule: a constant, step
// or diurnal envelope over the run's cap fraction (or over absolute
// fractions of reference power when Absolute is set).
type BudgetSpec struct {
	Kind     string
	Env      Envelope
	Absolute bool
}

// TraceSpec selects rows of a CSV trace (timestamp,client,qps) for
// replay. Norm divides the replayed QPS into a load fraction; zero
// selects the client's peak QPS, so the trace's busiest quantum maps
// to the clause's full scaled rate.
type TraceSpec struct {
	File   string
	Client string
	Norm   Num
}

// ArrivalSpec is one client's arrival process: either a stochastic
// process at a constant rate (poisson, bursty, weibull), a
// deterministic envelope (constant, step, diurnal) optionally composed
// Over a stochastic base, or trace replay.
type ArrivalSpec struct {
	Process  string
	Over     string
	Env      Envelope
	Events   Num // poisson: mean arrival events per quantum
	CV       Num // bursty: coefficient of variation of the gamma factor
	Shape    Num // weibull: shape k of the inter-burst intensity
	Trace    TraceSpec
	Absolute bool
}

// ClientSpec is one traffic clause: a named client owning Fraction of
// the run's load under an SLO class, with its own arrival process.
// Workloads are informational labels carried into reports.
type ClientSpec struct {
	Name      string
	Fraction  Num
	SLO       string
	Workloads []string
	Arrival   ArrivalSpec
}

// FaultSpec rides a fault schedule on one machine (wrapping modulo the
// fleet size, so specs stay meaningful for small smoke runs). The
// schedule is seeded with the machine's derived seed XOR Salt; two
// clauses targeting the same machine compose in declaration order.
type FaultSpec struct {
	Machine int
	Salt    uint64
	Events  []fault.Event
}

// ControlSpec asks for a managed run (internal/ctrlplane) instead of a
// bare fleet, with optional health and autoscaler clauses.
type ControlSpec struct {
	ReplaceEvicted bool
	HasHealth      bool
	Health         HealthSpec
	HasScale       bool
	Scale          ScaleSpec
}

// HealthSpec mirrors ctrlplane.HealthConfig; zero fields keep that
// package's documented defaults.
type HealthSpec struct {
	SuspectAfter    int
	QuarantineAfter int
	RecoverAfter    int
	ReleaseAfter    int
	ProbationAfter  int
	ProbationWeight Num
	DrainAfter      int
	DrainSlices     int
}

// ScaleSpec mirrors ctrlplane.ScaleConfig. MinAdd and MaxAdd are
// deltas on the run's machine count: MinMachines = machines + MinAdd,
// MaxMachines = machines + MaxAdd when MaxAdd > 0 (zero leaves
// scale-up unbounded). Zero rate/debounce fields keep ctrlplane
// defaults.
type ScaleSpec struct {
	UpUtil        Num
	DownUtil      Num
	UpAfter       int
	DownAfter     int
	Cooldown      int
	MinAdd        int
	MaxAdd        int
	MinBudgetFrac Num
}

// envelopeKinds and stochasticKinds partition the arrival process
// names; trace stands alone.
func isEnvelopeProc(p string) bool {
	return p == ProcConstant || p == ProcStep || p == ProcDiurnal
}

func isStochasticProc(p string) bool {
	return p == ProcPoisson || p == ProcBursty || p == ProcWeibull
}

// validate checks the spec's internal consistency: known names,
// resolvable service and fault kinds, and every clause's keys against
// its table (required keys set, values in range). Geometry left for
// Compile options (zero machines/slices/load/cap) passes validation.
func (s *Spec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec without a name")
	}
	if s.Service != "" {
		if _, err := workload.ByName(s.Service); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	if !isEnvelopeProc(s.Budget.Kind) {
		return fmt.Errorf("scenario %s: budget kind %q is not constant, step or diurnal", s.Name, s.Budget.Kind)
	}
	if len(s.Clients) == 0 {
		return fmt.Errorf("scenario %s: no traffic clients", s.Name)
	}
	for i := range s.Clients {
		if err := s.Clients[i].validate(s.Name, s.Clients[:i]); err != nil {
			return err
		}
	}
	for i := range s.Faults {
		f := &s.Faults[i]
		if len(f.Events) == 0 {
			return fmt.Errorf("scenario %s: fault clause %d has no events", s.Name, i)
		}
		for j, e := range f.Events {
			if _, err := fault.KindByName(string(e.Kind)); err != nil {
				return fmt.Errorf("scenario %s: fault clause %d event %d: %w", s.Name, i, j, err)
			}
			if e.End <= e.Start {
				return fmt.Errorf("scenario %s: fault clause %d event %d (%s) has empty window [%v, %v)",
					s.Name, i, j, e.Kind, e.Start, e.End)
			}
		}
	}
	for _, c := range s.clauses() {
		if err := check(c.what, c.c); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	return nil
}

// check reports a required key left unset or a key out of its range.
func check(what string, c clause) error {
	var req []string
	missing := false
	for _, pr := range c.params() {
		if pr.req {
			req = append(req, pr.key+"=")
			missing = missing || pr.zero()
		}
		if pr.omitted() {
			continue
		}
		if v, ok := pr.num(); ok && !pr.rng.holds(v) {
			return fmt.Errorf("%s %s=%s out of %s", what, pr.key, pr.String(), pr.rng)
		}
	}
	if missing {
		return fmt.Errorf("%s needs %s", what, strings.Join(req, " and "))
	}
	return nil
}

func (c *ClientSpec) validate(spec string, prior []ClientSpec) error {
	if c.Name == "" {
		return fmt.Errorf("scenario %s: client without a name", spec)
	}
	for i := range prior {
		if prior[i].Name == c.Name {
			return fmt.Errorf("scenario %s: duplicate client %q", spec, c.Name)
		}
	}
	switch c.SLO {
	case SLOCritical, SLOStandard, SLOBatch:
	default:
		return fmt.Errorf("scenario %s: client %s: unknown slo class %q", spec, c.Name, c.SLO)
	}
	a := &c.Arrival
	switch {
	case a.Over != "" && !isEnvelopeProc(a.Process):
		return fmt.Errorf("scenario %s: client %s: over= is only valid on envelope processes", spec, c.Name)
	case a.Over != "" && !isStochasticProc(a.Over):
		return fmt.Errorf("scenario %s: client %s: over=%q is not poisson, bursty or weibull", spec, c.Name, a.Over)
	case !isEnvelopeProc(a.Process) && !isStochasticProc(a.Process) && a.Process != ProcTrace:
		return fmt.Errorf("scenario %s: client %s: unknown arrival process %q", spec, c.Name, a.Process)
	}
	return nil
}

// stochastic names the stochastic component of the arrival, "" if the
// process is fully deterministic or trace-driven.
func (a *ArrivalSpec) stochastic() string {
	if isStochasticProc(a.Process) {
		return a.Process
	}
	if isEnvelopeProc(a.Process) {
		return a.Over
	}
	return ""
}

// envelope names the deterministic component of the arrival: the
// process itself when it is an envelope, constant otherwise.
func (a *ArrivalSpec) envelope() string {
	if isEnvelopeProc(a.Process) {
		return a.Process
	}
	return ProcConstant
}

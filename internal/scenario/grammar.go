package scenario

import (
	"fmt"
	"strconv"

	"cuttlesys/internal/fault"
)

// This file is the one definition of the spec grammar's key=value
// clauses. Each clause declares its keys as a table of params in
// canonical order; Parse assigns tokens through the table and fills
// its defaults, Format renders it, and validate checks its bounds, so
// a spec built in Go is held to the same ranges as a parsed one.

// param is one key of a clause: the Spec field it reads and writes,
// its default spelled as it canonicalises, and its legal range.
type param struct {
	key string
	// val points at the field: *int, *uint64, *float64, *Num, *string,
	// or *bool for a bare flag token such as absolute.
	val  any
	def  string // applied when the clause does not give the key
	omit bool   // Format leaves the key out at zero or def (see omitted)
	req  bool   // must be non-zero
	hex  bool   // a *uint64 rendered as 0x…
	text bool   // a one-value directive whose value runs to the end of its line
	rng  bound
}

// bound is a param's legal range.
type bound uint8

const (
	anyValue bound = iota
	nonNeg
	positive
	unit     // [0, 1]
	openUnit // (0, 1)
	frac     // (0, 1]
)

func (b bound) holds(v float64) bool {
	switch b {
	case nonNeg:
		return v >= 0
	case positive:
		return v > 0
	case unit:
		return v >= 0 && v <= 1
	case openUnit:
		return v > 0 && v < 1
	case frac:
		return v > 0 && v <= 1
	}
	return true
}

func (b bound) String() string {
	return [...]string{"", "[0, inf)", "(0, inf)", "[0, 1]", "(0, 1)", "(0, 1]"}[b]
}

// set parses one token's value into the field; bare reports a token
// without '=', which only a flag takes.
func (pr *param) set(v string, bare bool) error {
	if f, ok := pr.val.(*bool); ok {
		if !bare {
			return fmt.Errorf("%s is a bare flag, got %s=%s", pr.key, pr.key, v)
		}
		*f = true
		return nil
	}
	if v == "" {
		return fmt.Errorf("expected %s=value", pr.key)
	}
	var err error
	switch f := pr.val.(type) {
	case *int:
		if *f, err = strconv.Atoi(v); err != nil {
			return fmt.Errorf("bad integer %q", v)
		}
	case *uint64:
		if *f, err = strconv.ParseUint(v, 0, 64); err != nil {
			return fmt.Errorf("bad unsigned integer %q", v)
		}
	case *float64:
		*f, err = parseFloat(v)
	case *Num:
		*f, err = parseNum(v)
	case *string:
		*f = v
	}
	return err
}

// String renders the field's canonical spelling; a flag renders as
// its bare key.
func (pr *param) String() string {
	switch f := pr.val.(type) {
	case *int:
		return strconv.Itoa(*f)
	case *uint64:
		if pr.hex {
			return "0x" + strconv.FormatUint(*f, 16)
		}
		return strconv.FormatUint(*f, 10)
	case *float64:
		return formatFloat(*f)
	case *Num:
		return f.String()
	case *string:
		return *f
	}
	return pr.key
}

// num is the field's numeric value; ok is false for strings and flags.
func (pr *param) num() (v float64, ok bool) {
	switch f := pr.val.(type) {
	case *int:
		return float64(*f), true
	case *uint64:
		return float64(*f), true
	case *float64:
		return *f, true
	case *Num:
		return f.Value(), true
	}
	return 0, false
}

// omitted reports a key Format leaves out: an omit key at zero, which
// means unset, so validate skips its range too, or at its default.
func (pr *param) omitted() bool { return pr.omit && (pr.zero() || pr.String() == pr.def) }

func (pr *param) zero() bool {
	switch f := pr.val.(type) {
	case *Num:
		return f.isZero()
	case *string:
		return *f == ""
	case *bool:
		return !*f
	}
	v, _ := pr.num()
	return v == 0
}

// clause is a key=value clause of the grammar; params returns its
// table bound to the clause's fields. A table may depend on the
// clause's head (an envelope's kind, an arrival's process) and on its
// own values (an envelope arrival's over= selects its stochastic key).
type clause interface{ params() []param }

// params are the spec's one-value directives: its name, description
// and geometry. Zero geometry defers to Compile's options.
func (s *Spec) params() []param {
	return []param{
		{key: "scenario", val: &s.Name},
		{key: "describe", val: &s.Describe, omit: true, text: true},
		{key: "service", val: &s.Service, omit: true},
		{key: "machines", val: &s.Machines, omit: true, rng: nonNeg},
		{key: "slices", val: &s.Slices, omit: true, rng: nonNeg},
		{key: "load", val: &s.Load, omit: true, rng: frac},
		{key: "cap", val: &s.Cap, omit: true, rng: frac},
	}
}

// params are a client block's one-value directives.
func (c *ClientSpec) params() []param {
	return []param{
		{key: "fraction", val: &c.Fraction, def: "1", rng: positive},
		{key: "slo", val: &c.SLO, def: SLOStandard},
	}
}

func (m *MixSpec) params() []param {
	return []param{
		{key: "jobs", val: &m.Jobs, def: "16", rng: nonNeg},
		{key: "train", val: &m.Train, def: "16", rng: nonNeg},
		{key: "trainseed", val: &m.TrainSeed, def: "1"},
		{key: "seed", val: &m.Seed, omit: true},
	}
}

func (p *PolicySpec) params() []param {
	return []param{
		{key: "router", val: &p.Router, def: "uniform", req: true},
		{key: "arbiter", val: &p.Arbiter, def: "proportional", req: true},
		{key: "scheduler", val: &p.Scheduler, def: "cuttlesys", omit: true},
	}
}

// envParams is the table of one envelope kind: constant defaults
// rate=1; step needs lo and hi and defaults its window to the run's
// middle third; diurnal needs lo and hi and defaults period=1 phase=0.
func envParams(kind string, e *Envelope) []param {
	switch kind {
	case ProcConstant:
		return []param{{key: "rate", val: &e.Rate, def: "1"}}
	case ProcStep:
		return []param{
			{key: "lo", val: &e.Lo, req: true},
			{key: "hi", val: &e.Hi, req: true},
			{key: "from", val: &e.From, def: "1/3"},
			{key: "to", val: &e.To, def: "2/3"},
		}
	case ProcDiurnal:
		return []param{
			{key: "lo", val: &e.Lo, req: true},
			{key: "hi", val: &e.Hi, req: true},
			{key: "max", val: &e.Max, omit: true},
			{key: "period", val: &e.Period, def: "1"},
			{key: "phase", val: &e.Phase, omit: true},
		}
	}
	return nil
}

func (b *BudgetSpec) params() []param {
	return append(envParams(b.Kind, &b.Env), param{key: "absolute", val: &b.Absolute, omit: true})
}

// params lists an arrival's keys in canonical order: its envelope's
// (stochastic and trace processes ride a constant one), over= on an
// envelope process, the stochastic component's, the trace selection,
// and the absolute flag.
func (a *ArrivalSpec) params() []param {
	ps := envParams(a.envelope(), &a.Env)
	if isEnvelopeProc(a.Process) {
		ps = append(ps, param{key: "over", val: &a.Over, omit: true})
	}
	switch a.stochastic() {
	case ProcPoisson:
		ps = append(ps, param{key: "events", val: &a.Events, def: "64", rng: positive})
	case ProcBursty:
		ps = append(ps, param{key: "cv", val: &a.CV, def: "2", rng: positive})
	case ProcWeibull:
		ps = append(ps, param{key: "shape", val: &a.Shape, def: "0.7", rng: positive})
	}
	if a.Process == ProcTrace {
		ps = append(ps,
			param{key: "file", val: &a.Trace.File, req: true},
			param{key: "client", val: &a.Trace.Client, req: true},
			param{key: "norm", val: &a.Trace.Norm, omit: true, rng: nonNeg})
	}
	return append(ps, param{key: "absolute", val: &a.Absolute, omit: true})
}

// params are internal/modelplane's defaults, spelled out so the parsed
// clause is fully explicit. Decay stays strictly inside (0, 1): the
// plane reads 0 as "use the default".
func (sh *ShareSpec) params() []param {
	return []param{
		{key: "syncperiod", val: &sh.SyncPeriod, def: "4", rng: positive},
		{key: "decay", val: &sh.Decay, def: "0.5", rng: openUnit},
		{key: "finetune", val: &sh.FineTune, def: "40", rng: positive},
		{key: "confidence", val: &sh.Confidence, def: "2", rng: positive},
	}
}

func (f *FaultSpec) params() []param {
	return []param{
		{key: "machine", val: &f.Machine, rng: nonNeg},
		{key: "salt", val: &f.Salt, omit: true, hex: true},
	}
}

// event is a fault event as a clause. Fields left at zero take the
// kind's default in internal/fault, so Format omits them; negative
// core counts would subtract from an overlapping fail-stop.
type event fault.Event

func (e *event) params() []param {
	return []param{
		{key: "start", val: &e.Start},
		{key: "end", val: &e.End},
		{key: "cores", val: &e.Cores, omit: true, rng: nonNeg},
		{key: "batchcores", val: &e.BatchCores, omit: true, rng: nonNeg},
		{key: "factor", val: &e.Factor, omit: true, rng: nonNeg},
		{key: "batchfactor", val: &e.BatchFactor, omit: true, rng: nonNeg},
		{key: "prob", val: &e.Prob, omit: true, rng: unit},
		{key: "magnitude", val: &e.Magnitude, omit: true, rng: nonNeg},
	}
}

// params are ctrlplane.HealthConfig's knobs; zero keeps its default.
func (h *HealthSpec) params() []param {
	return []param{
		{key: "suspectafter", val: &h.SuspectAfter, omit: true, rng: nonNeg},
		{key: "quarantineafter", val: &h.QuarantineAfter, omit: true, rng: nonNeg},
		{key: "recoverafter", val: &h.RecoverAfter, omit: true, rng: nonNeg},
		{key: "releaseafter", val: &h.ReleaseAfter, omit: true, rng: nonNeg},
		{key: "probationafter", val: &h.ProbationAfter, omit: true, rng: nonNeg},
		{key: "probationweight", val: &h.ProbationWeight, omit: true, rng: unit},
		{key: "drainafter", val: &h.DrainAfter, omit: true, rng: nonNeg},
		{key: "drainslices", val: &h.DrainSlices, omit: true, rng: nonNeg},
	}
}

// params are ctrlplane.ScaleConfig's knobs; zero keeps its default.
// MinAdd alone is signed: a negative delta lets the fleet shrink.
func (s *ScaleSpec) params() []param {
	return []param{
		{key: "uputil", val: &s.UpUtil, omit: true, rng: nonNeg},
		{key: "downutil", val: &s.DownUtil, omit: true, rng: nonNeg},
		{key: "upafter", val: &s.UpAfter, omit: true, rng: nonNeg},
		{key: "downafter", val: &s.DownAfter, omit: true, rng: nonNeg},
		{key: "cooldown", val: &s.Cooldown, omit: true, rng: nonNeg},
		{key: "minadd", val: &s.MinAdd, omit: true},
		{key: "maxadd", val: &s.MaxAdd, omit: true, rng: nonNeg},
		{key: "minbudgetfrac", val: &s.MinBudgetFrac, omit: true, rng: unit},
	}
}

// namedClause is a clause with the label its errors carry.
type namedClause struct {
	what string
	c    clause
}

// clauses lists every key=value clause of the spec in canonical
// order: Parse fills their defaults and validate checks their tables.
func (s *Spec) clauses() []namedClause {
	cs := []namedClause{{"spec", s}, {"mix", &s.Mix}, {"policy", &s.Policy}, {"budget " + s.Budget.Kind, &s.Budget}}
	if s.Share != nil {
		cs = append(cs, namedClause{"share", s.Share})
	}
	for i := range s.Clients {
		c := &s.Clients[i]
		cs = append(cs, namedClause{"client " + c.Name, c},
			namedClause{"client " + c.Name + ": arrival " + c.Arrival.Process, &c.Arrival})
	}
	for i := range s.Faults {
		f := &s.Faults[i]
		cs = append(cs, namedClause{fmt.Sprintf("fault clause %d", i), f})
		for j := range f.Events {
			cs = append(cs, namedClause{fmt.Sprintf("fault clause %d event %d", i, j), (*event)(&f.Events[j])})
		}
	}
	if ctl := s.Control; ctl != nil {
		if ctl.HasHealth {
			cs = append(cs, namedClause{"health", &ctl.Health})
		}
		if ctl.HasScale {
			cs = append(cs, namedClause{"scale", &ctl.Scale})
		}
	}
	return cs
}

package scenario

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"cuttlesys/internal/fault"
)

// Parse reads one spec from its textual form. The grammar is
// line-oriented: '#' starts a comment, blank lines separate clauses,
// and the block directives (client, fault, control) open with a
// trailing '{' and close with a bare '}'. Parse applies every
// documented default, so the returned Spec is fully explicit and
// Format renders its canonical form. The result is validated.
func Parse(src []byte) (*Spec, error) {
	p := &parser{spec: &Spec{}}
	for _, raw := range strings.Split(string(src), "\n") {
		p.line++
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := p.directive(line); err != nil {
			return nil, err
		}
	}
	if p.block != "" {
		return nil, fmt.Errorf("scenario: line %d: unclosed %s block", p.line, p.block)
	}
	p.finish()
	if err := p.spec.validate(); err != nil {
		return nil, err
	}
	return p.spec, nil
}

type parser struct {
	spec *Spec
	line int

	// block is the open block directive ("client", "fault", "control"),
	// empty at top level.
	block   string
	client  *ClientSpec
	faultCl *FaultSpec
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("scenario: line %d: "+format, append([]any{p.line}, args...)...)
}

func (p *parser) directive(line string) error {
	if line == "}" {
		return p.closeBlock()
	}
	fields := strings.Fields(line)
	switch p.block {
	case "client":
		return p.clientDirective(fields)
	case "fault":
		return p.faultDirective(fields)
	case "control":
		return p.controlDirective(fields)
	}
	return p.topDirective(line, fields)
}

func (p *parser) closeBlock() error {
	switch p.block {
	case "client":
		p.finishClient()
		p.spec.Clients = append(p.spec.Clients, *p.client)
		p.client = nil
	case "fault":
		if len(p.faultCl.Events) == 0 {
			return p.errf("fault block has no events")
		}
		p.spec.Faults = append(p.spec.Faults, *p.faultCl)
		p.faultCl = nil
	case "control":
	default:
		return p.errf("unmatched '}'")
	}
	p.block = ""
	return nil
}

func (p *parser) topDirective(line string, fields []string) error {
	key, rest := fields[0], fields[1:]
	switch key {
	case "scenario":
		if len(rest) != 1 {
			return p.errf("scenario directive wants exactly one name")
		}
		p.spec.Name = rest[0]
	case "describe":
		p.spec.Describe = strings.Join(rest, " ")
	case "service":
		if len(rest) != 1 {
			return p.errf("service directive wants exactly one name")
		}
		p.spec.Service = rest[0]
	case "machines":
		return p.intDirective(rest, &p.spec.Machines)
	case "slices":
		return p.intDirective(rest, &p.spec.Slices)
	case "load":
		return p.numDirective(rest, &p.spec.Load)
	case "cap":
		return p.numDirective(rest, &p.spec.Cap)
	case "mix":
		return p.mixDirective(rest)
	case "policy":
		return p.policyDirective(rest)
	case "budget":
		return p.budgetDirective(rest)
	case "share":
		return p.shareDirective(rest)
	case "client":
		if len(rest) != 2 || rest[1] != "{" {
			return p.errf("client directive wants: client <name> {")
		}
		p.block = "client"
		p.client = &ClientSpec{Name: rest[0]}
	case "fault":
		return p.faultOpen(rest)
	case "control":
		if len(rest) != 1 || rest[0] != "{" {
			return p.errf("control directive wants: control {")
		}
		p.block = "control"
		p.spec.Control = &ControlSpec{}
	default:
		return p.errf("unknown directive %q", key)
	}
	return nil
}

func (p *parser) intDirective(rest []string, dst *int) error {
	if len(rest) != 1 {
		return p.errf("directive wants exactly one integer")
	}
	v, err := strconv.Atoi(rest[0])
	if err != nil {
		return p.errf("bad integer %q", rest[0])
	}
	*dst = v
	return nil
}

func (p *parser) numDirective(rest []string, dst *Num) error {
	if len(rest) != 1 {
		return p.errf("directive wants exactly one number")
	}
	n, err := parseNum(rest[0])
	if err != nil {
		return p.errf("%v", err)
	}
	*dst = n
	return nil
}

func (p *parser) mixDirective(rest []string) error {
	for _, tok := range rest {
		k, v, err := p.keyVal(tok)
		if err != nil {
			return err
		}
		switch k {
		case "jobs":
			if err := setInt(&p.spec.Mix.Jobs, v); err != nil {
				return p.errf("mix %s: %v", k, err)
			}
		case "train":
			if err := setInt(&p.spec.Mix.Train, v); err != nil {
				return p.errf("mix %s: %v", k, err)
			}
		case "trainseed":
			if err := setUint(&p.spec.Mix.TrainSeed, v); err != nil {
				return p.errf("mix %s: %v", k, err)
			}
		default:
			return p.errf("unknown mix parameter %q", k)
		}
	}
	return nil
}

func (p *parser) policyDirective(rest []string) error {
	for _, tok := range rest {
		k, v, err := p.keyVal(tok)
		if err != nil {
			return err
		}
		switch k {
		case "router":
			p.spec.Policy.Router = v
		case "arbiter":
			p.spec.Policy.Arbiter = v
		default:
			return p.errf("unknown policy parameter %q", k)
		}
	}
	return nil
}

func (p *parser) budgetDirective(rest []string) error {
	if len(rest) == 0 {
		return p.errf("budget directive wants a kind")
	}
	b := &p.spec.Budget
	b.Kind = rest[0]
	if !isEnvelopeProc(b.Kind) {
		return p.errf("budget kind %q is not constant, step or diurnal", b.Kind)
	}
	for _, tok := range rest[1:] {
		if tok == "absolute" {
			b.Absolute = true
			continue
		}
		k, v, err := p.keyVal(tok)
		if err != nil {
			return err
		}
		if err := p.setEnvParam(&b.Env, k, v); err != nil {
			return err
		}
	}
	return p.finishEnvelope(b.Kind, &b.Env, "budget")
}

// setEnvParam assigns one envelope key.
func (p *parser) setEnvParam(e *Envelope, k, v string) error {
	var dst *Num
	switch k {
	case "rate":
		dst = &e.Rate
	case "lo":
		dst = &e.Lo
	case "hi":
		dst = &e.Hi
	case "max":
		dst = &e.Max
	case "from":
		dst = &e.From
	case "to":
		dst = &e.To
	case "period":
		dst = &e.Period
	case "phase":
		dst = &e.Phase
	default:
		return p.errf("unknown envelope parameter %q", k)
	}
	n, err := parseNum(v)
	if err != nil {
		return p.errf("%s: %v", k, err)
	}
	*dst = n
	return nil
}

// finishEnvelope applies envelope defaults and checks required
// parameters: constant defaults rate=1; step requires lo and hi and
// defaults its window to the run's middle third; diurnal requires lo
// and hi and defaults period=1 phase=0.
func (p *parser) finishEnvelope(kind string, e *Envelope, what string) error {
	switch kind {
	case ProcConstant:
		if e.Rate.isZero() {
			e.Rate = num(1)
		}
	case ProcStep:
		if e.Lo.isZero() || e.Hi.isZero() {
			return p.errf("%s step needs lo= and hi=", what)
		}
		if e.From.isZero() {
			e.From = Num{N: 1, D: 3}
		}
		if e.To.isZero() {
			e.To = Num{N: 2, D: 3}
		}
	case ProcDiurnal:
		if e.Lo.isZero() || e.Hi.isZero() {
			return p.errf("%s diurnal needs lo= and hi=", what)
		}
		if e.Period.isZero() {
			e.Period = num(1)
		}
	}
	return nil
}

// shareDirective parses the model-sharing clause and applies the
// documented defaults (internal/modelplane's), so the parsed clause is
// fully explicit: share syncperiod=4 decay=0.5 finetune=40
// confidence=2.
func (p *parser) shareDirective(rest []string) error {
	sh := &ShareSpec{}
	for _, tok := range rest {
		k, v, err := p.keyVal(tok)
		if err != nil {
			return err
		}
		switch k {
		case "syncperiod":
			if err := setInt(&sh.SyncPeriod, v); err != nil {
				return p.errf("share %s: %v", k, err)
			}
		case "decay":
			if err := p.setNum(&sh.Decay, k, v); err != nil {
				return err
			}
		case "finetune":
			if err := setInt(&sh.FineTune, v); err != nil {
				return p.errf("share %s: %v", k, err)
			}
		case "confidence":
			if err := setInt(&sh.Confidence, v); err != nil {
				return p.errf("share %s: %v", k, err)
			}
		default:
			return p.errf("unknown share parameter %q", k)
		}
	}
	if sh.SyncPeriod == 0 {
		sh.SyncPeriod = 4
	}
	if sh.Decay.isZero() {
		sh.Decay = num(0.5)
	}
	if sh.FineTune == 0 {
		sh.FineTune = 40
	}
	if sh.Confidence == 0 {
		sh.Confidence = 2
	}
	p.spec.Share = sh
	return nil
}

func (p *parser) faultOpen(rest []string) error {
	if len(rest) < 2 || rest[len(rest)-1] != "{" {
		return p.errf("fault directive wants: fault machine=N [salt=0x...] {")
	}
	cl := &FaultSpec{}
	for _, tok := range rest[:len(rest)-1] {
		k, v, err := p.keyVal(tok)
		if err != nil {
			return err
		}
		switch k {
		case "machine":
			if err := setInt(&cl.Machine, v); err != nil {
				return p.errf("fault machine: %v", err)
			}
		case "salt":
			if err := setUint(&cl.Salt, v); err != nil {
				return p.errf("fault salt: %v", err)
			}
		default:
			return p.errf("unknown fault parameter %q", k)
		}
	}
	p.block = "fault"
	p.faultCl = cl
	return nil
}

func (p *parser) clientDirective(fields []string) error {
	key, rest := fields[0], fields[1:]
	c := p.client
	switch key {
	case "fraction":
		return p.numDirective(rest, &c.Fraction)
	case "slo":
		if len(rest) != 1 {
			return p.errf("slo directive wants exactly one class")
		}
		c.SLO = rest[0]
	case "workloads":
		if len(rest) == 0 {
			return p.errf("workloads directive wants at least one name")
		}
		c.Workloads = append(c.Workloads, rest...)
	case "arrival":
		return p.arrivalDirective(rest)
	default:
		return p.errf("unknown client directive %q", key)
	}
	return nil
}

func (p *parser) arrivalDirective(rest []string) error {
	if len(rest) == 0 {
		return p.errf("arrival directive wants a process")
	}
	a := &p.client.Arrival
	a.Process = rest[0]
	for _, tok := range rest[1:] {
		if tok == "absolute" {
			a.Absolute = true
			continue
		}
		k, v, err := p.keyVal(tok)
		if err != nil {
			return err
		}
		switch k {
		case "over":
			a.Over = v
		case "events":
			if err := p.setNum(&a.Events, k, v); err != nil {
				return err
			}
		case "cv":
			if err := p.setNum(&a.CV, k, v); err != nil {
				return err
			}
		case "shape":
			if err := p.setNum(&a.Shape, k, v); err != nil {
				return err
			}
		case "file":
			a.Trace.File = v
		case "client":
			a.Trace.Client = v
		case "norm":
			if err := p.setNum(&a.Trace.Norm, k, v); err != nil {
				return err
			}
		default:
			if err := p.setEnvParam(&a.Env, k, v); err != nil {
				return err
			}
		}
	}
	if isEnvelopeProc(a.Process) {
		if err := p.finishEnvelope(a.Process, &a.Env, "arrival"); err != nil {
			return err
		}
	} else if a.Env.Rate.isZero() {
		// Stochastic and trace processes modulate a constant envelope.
		a.Env.Rate = num(1)
	}
	switch a.stochastic() {
	case ProcPoisson:
		if a.Events.isZero() {
			a.Events = num(64)
		}
	case ProcBursty:
		if a.CV.isZero() {
			a.CV = num(2)
		}
	case ProcWeibull:
		if a.Shape.isZero() {
			a.Shape = num(0.7)
		}
	}
	return nil
}

func (p *parser) setNum(dst *Num, k, v string) error {
	n, err := parseNum(v)
	if err != nil {
		return p.errf("%s: %v", k, err)
	}
	*dst = n
	return nil
}

func (p *parser) faultDirective(fields []string) error {
	if fields[0] != "event" || len(fields) < 2 {
		return p.errf("fault blocks hold event lines: event <kind> start=... end=...")
	}
	kind, err := fault.KindByName(fields[1])
	if err != nil {
		return p.errf("%v", err)
	}
	e := fault.Event{Kind: kind}
	for _, tok := range fields[2:] {
		k, v, err := p.keyVal(tok)
		if err != nil {
			return err
		}
		switch k {
		case "start":
			err = setFloat(&e.Start, v)
		case "end":
			err = setFloat(&e.End, v)
		case "cores":
			err = setInt(&e.Cores, v)
		case "batchcores":
			err = setInt(&e.BatchCores, v)
		case "factor":
			err = setFloat(&e.Factor, v)
		case "batchfactor":
			err = setFloat(&e.BatchFactor, v)
		case "prob":
			err = setFloat(&e.Prob, v)
		case "magnitude":
			err = setFloat(&e.Magnitude, v)
		default:
			return p.errf("unknown event parameter %q", k)
		}
		if err != nil {
			return p.errf("event %s: %v", k, err)
		}
	}
	p.faultCl.Events = append(p.faultCl.Events, e)
	return nil
}

func (p *parser) controlDirective(fields []string) error {
	ctl := p.spec.Control
	switch fields[0] {
	case "replace-evicted":
		ctl.ReplaceEvicted = true
	case "health":
		ctl.HasHealth = true
		for _, tok := range fields[1:] {
			k, v, err := p.keyVal(tok)
			if err != nil {
				return err
			}
			if err := p.setHealthParam(&ctl.Health, k, v); err != nil {
				return err
			}
		}
	case "scale":
		ctl.HasScale = true
		for _, tok := range fields[1:] {
			k, v, err := p.keyVal(tok)
			if err != nil {
				return err
			}
			if err := p.setScaleParam(&ctl.Scale, k, v); err != nil {
				return err
			}
		}
	default:
		return p.errf("unknown control directive %q", fields[0])
	}
	return nil
}

func (p *parser) setHealthParam(h *HealthSpec, k, v string) error {
	var dst *int
	switch k {
	case "suspectafter":
		dst = &h.SuspectAfter
	case "quarantineafter":
		dst = &h.QuarantineAfter
	case "recoverafter":
		dst = &h.RecoverAfter
	case "releaseafter":
		dst = &h.ReleaseAfter
	case "probationafter":
		dst = &h.ProbationAfter
	case "drainafter":
		dst = &h.DrainAfter
	case "drainslices":
		dst = &h.DrainSlices
	case "probationweight":
		return p.setNum(&h.ProbationWeight, k, v)
	default:
		return p.errf("unknown health parameter %q", k)
	}
	if err := setInt(dst, v); err != nil {
		return p.errf("health %s: %v", k, err)
	}
	return nil
}

func (p *parser) setScaleParam(s *ScaleSpec, k, v string) error {
	var dst *int
	switch k {
	case "upafter":
		dst = &s.UpAfter
	case "downafter":
		dst = &s.DownAfter
	case "cooldown":
		dst = &s.Cooldown
	case "minadd":
		dst = &s.MinAdd
	case "maxadd":
		dst = &s.MaxAdd
	case "uputil":
		return p.setNum(&s.UpUtil, k, v)
	case "downutil":
		return p.setNum(&s.DownUtil, k, v)
	case "minbudgetfrac":
		return p.setNum(&s.MinBudgetFrac, k, v)
	default:
		return p.errf("unknown scale parameter %q", k)
	}
	if err := setInt(dst, v); err != nil {
		return p.errf("scale %s: %v", k, err)
	}
	return nil
}

// finishClient applies per-client defaults.
func (p *parser) finishClient() {
	c := p.client
	if c.Fraction.isZero() {
		c.Fraction = num(1)
	}
	if c.SLO == "" {
		c.SLO = SLOStandard
	}
	if c.Arrival.Process == "" {
		c.Arrival = ArrivalSpec{Process: ProcConstant, Env: Envelope{Rate: num(1)}}
	}
}

// finish applies spec-level defaults: the batch-mix split, the
// baseline policy pair, a constant relative budget, and — when no
// client clause appears — a single full-fraction standard client with
// a constant arrival, so the minimal spec is just a name.
func (p *parser) finish() {
	s := p.spec
	if s.Mix.Jobs == 0 {
		s.Mix.Jobs = 16
	}
	if s.Mix.Train == 0 {
		s.Mix.Train = 16
	}
	if s.Mix.TrainSeed == 0 {
		s.Mix.TrainSeed = 1
	}
	if s.Policy.Router == "" {
		s.Policy.Router = "uniform"
	}
	if s.Policy.Arbiter == "" {
		s.Policy.Arbiter = "proportional"
	}
	if s.Budget.Kind == "" {
		s.Budget = BudgetSpec{Kind: ProcConstant, Env: Envelope{Rate: num(1)}}
	}
	if len(s.Clients) == 0 {
		s.Clients = []ClientSpec{{
			Name:     "primary",
			Fraction: num(1),
			SLO:      SLOStandard,
			Arrival:  ArrivalSpec{Process: ProcConstant, Env: Envelope{Rate: num(1)}},
		}}
	}
}

func (p *parser) keyVal(tok string) (string, string, error) {
	k, v, ok := strings.Cut(tok, "=")
	if !ok || k == "" || v == "" {
		return "", "", p.errf("expected key=value, got %q", tok)
	}
	return k, v, nil
}

func parseNum(s string) (Num, error) {
	if ns, ds, ok := strings.Cut(s, "/"); ok {
		n, err := parseFloat(ns)
		if err != nil {
			return Num{}, err
		}
		d, err := parseFloat(ds)
		if err != nil {
			return Num{}, err
		}
		if d == 0 {
			return Num{}, fmt.Errorf("zero denominator in %q", s)
		}
		return Num{N: n, D: d}, nil
	}
	v, err := parseFloat(s)
	if err != nil {
		return Num{}, err
	}
	return num(v), nil
}

func parseFloat(s string) (float64, error) {
	if s == "inf" {
		return math.Inf(1), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return v, nil
}

func setInt(dst *int, v string) error {
	n, err := strconv.Atoi(v)
	if err != nil {
		return fmt.Errorf("bad integer %q", v)
	}
	*dst = n
	return nil
}

func setUint(dst *uint64, v string) error {
	n, err := strconv.ParseUint(v, 0, 64)
	if err != nil {
		return fmt.Errorf("bad unsigned integer %q", v)
	}
	*dst = n
	return nil
}

func setFloat(dst *float64, v string) error {
	f, err := parseFloat(v)
	if err != nil {
		return err
	}
	*dst = f
	return nil
}

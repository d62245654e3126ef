package scenario

import (
	"fmt"
	"math"
	"slices"
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
	p := &parser{spec: &Spec{}, seen: map[scoped]int{}}
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
	// empty at top level; opened is the line that opened it.
	block   string
	opened  int
	client  *ClientSpec
	faultCl *FaultSpec
	// seen maps each singular directive of a scope (top level, or the
	// block opened on a line) to the line that first gave it.
	seen map[scoped]int
}

type scoped struct {
	opened    int
	directive string
}

// repeatable directives may appear more than once in their scope;
// any other repeated directive is an error.
var repeatable = map[string]bool{"client": true, "fault": true, "workloads": true, "event": true}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("scenario: line %d: "+format, append([]any{p.line}, args...)...)
}

func (p *parser) directive(line string) error {
	if line == "}" {
		return p.closeBlock()
	}
	fields := strings.Fields(line)
	if at := (scoped{p.opened, fields[0]}); !repeatable[fields[0]] {
		if first, ok := p.seen[at]; ok {
			return p.errf("repeated %s directive (first on line %d)", fields[0], first)
		}
		p.seen[at] = p.line
	}
	switch p.block {
	case "client":
		return p.clientDirective(fields)
	case "fault":
		return p.faultDirective(fields)
	case "control":
		return p.controlDirective(fields)
	}
	return p.topDirective(fields)
}

func (p *parser) open(block string) {
	p.block, p.opened = block, p.line
}

func (p *parser) closeBlock() error {
	switch p.block {
	case "client":
		if p.client.Arrival.Process == "" {
			p.client.Arrival.Process = ProcConstant
		}
		p.spec.Clients = append(p.spec.Clients, *p.client)
		p.client = nil
	case "fault":
		p.spec.Faults = append(p.spec.Faults, *p.faultCl)
		p.faultCl = nil
	case "control":
	default:
		return p.errf("unmatched '}'")
	}
	p.block, p.opened = "", 0
	return nil
}

func (p *parser) topDirective(fields []string) error {
	s := p.spec
	key, rest := fields[0], fields[1:]
	switch key {
	case "mix":
		return p.params(key, &s.Mix, rest)
	case "policy":
		return p.params(key, &s.Policy, rest)
	case "budget":
		if len(rest) == 0 {
			return p.errf("budget directive wants a kind")
		}
		if s.Budget.Kind = rest[0]; !isEnvelopeProc(s.Budget.Kind) {
			return p.errf("budget kind %q is not constant, step or diurnal", s.Budget.Kind)
		}
		return p.params("envelope", &s.Budget, rest[1:])
	case "share":
		s.Share = &ShareSpec{}
		return p.params(key, s.Share, rest)
	case "client":
		if len(rest) != 2 || rest[1] != "{" {
			return p.errf("client directive wants: client <name> {")
		}
		p.open(key)
		p.client = &ClientSpec{Name: rest[0]}
	case "fault":
		if len(rest) < 2 || rest[len(rest)-1] != "{" {
			return p.errf("fault directive wants: fault machine=N [salt=0x...] {")
		}
		p.open(key)
		p.faultCl = &FaultSpec{}
		return p.params(key, p.faultCl, rest[:len(rest)-1])
	case "control":
		if len(rest) != 1 || rest[0] != "{" {
			return p.errf("control directive wants: control {")
		}
		p.open(key)
		s.Control = &ControlSpec{}
	default:
		return p.value(s, fields)
	}
	return nil
}

// value parses a one-value directive (machines 4, fraction 3/4)
// through its scope's table.
func (p *parser) value(c clause, fields []string) error {
	key, v := fields[0], strings.Join(fields[1:], " ")
	ps := c.params()
	i := slices.IndexFunc(ps, func(pr param) bool { return pr.key == key })
	switch {
	case i < 0:
		return p.errf("unknown directive %q", key)
	case ps[i].text && v == "":
		return nil // a bare describe leaves the spec undescribed
	case !ps[i].text && len(fields) != 2:
		return p.errf("%s directive wants exactly one value", key)
	}
	if err := ps[i].set(v, false); err != nil {
		return p.errf("%s: %v", key, err)
	}
	return nil
}

// params assigns a clause's tokens through its table: each key at
// most once, and only keys the table holds. The table is read again
// while tokens remain and the last pass placed some, since a value can
// add keys (an envelope arrival's over= adds its stochastic one).
func (p *parser) params(what string, c clause, toks []string) error {
	given := make(map[string]bool, len(toks))
	for _, tok := range toks {
		k, _, _ := strings.Cut(tok, "=")
		if given[k] {
			return p.errf("repeated %s parameter %s", what, k)
		}
		given[k] = true
	}
	for len(toks) > 0 {
		var rest []string
		ps := c.params()
		for _, tok := range toks {
			k, v, kv := strings.Cut(tok, "=")
			i := slices.IndexFunc(ps, func(pr param) bool { return pr.key == k })
			if i < 0 {
				rest = append(rest, tok)
				continue
			}
			if err := ps[i].set(v, !kv); err != nil {
				return p.errf("%s %s: %v", what, k, err)
			}
		}
		if len(rest) == len(toks) {
			return p.errf("unknown %s parameter %q", what, rest[0])
		}
		toks = rest
	}
	return nil
}

func (p *parser) clientDirective(fields []string) error {
	key, rest := fields[0], fields[1:]
	c := p.client
	switch key {
	case "workloads":
		if len(rest) == 0 {
			return p.errf("workloads directive wants at least one name")
		}
		c.Workloads = append(c.Workloads, rest...)
	case "arrival":
		if len(rest) == 0 {
			return p.errf("arrival directive wants a process")
		}
		a := &c.Arrival
		a.Process = rest[0]
		what := "envelope"
		if !isEnvelopeProc(a.Process) {
			what = a.Process
		}
		return p.params(what, a, rest[1:])
	default:
		return p.value(c, fields)
	}
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
	e := event{Kind: kind}
	if err := p.params("event", &e, fields[2:]); err != nil {
		return err
	}
	p.faultCl.Events = append(p.faultCl.Events, fault.Event(e))
	return nil
}

func (p *parser) controlDirective(fields []string) error {
	ctl := p.spec.Control
	switch fields[0] {
	case "replace-evicted":
		ctl.ReplaceEvicted = true
	case "health":
		ctl.HasHealth = true
		return p.params("health", &ctl.Health, fields[1:])
	case "scale":
		ctl.HasScale = true
		return p.params("scale", &ctl.Scale, fields[1:])
	default:
		return p.errf("unknown control directive %q", fields[0])
	}
	return nil
}

// finish applies spec-level defaults: a constant budget, and — when no
// client clause appears — a single full-fraction standard client with
// a constant arrival, so the minimal spec is just a name; then every
// clause's table defaults.
func (p *parser) finish() {
	s := p.spec
	if s.Budget.Kind == "" {
		s.Budget.Kind = ProcConstant
	}
	if len(s.Clients) == 0 {
		s.Clients = []ClientSpec{{Name: "primary", Arrival: ArrivalSpec{Process: ProcConstant}}}
	}
	for _, c := range s.clauses() {
		fill(c.c)
	}
}

// fill applies the default of every key left at zero.
func fill(c clause) {
	for _, pr := range c.params() {
		if pr.def != "" && pr.zero() {
			if err := pr.set(pr.def, false); err != nil {
				panic(fmt.Sprintf("scenario: default %s=%s: %v", pr.key, pr.def, err))
			}
		}
	}
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

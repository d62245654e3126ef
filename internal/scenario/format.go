package scenario

import (
	"hash/fnv"
	"strings"
)

// Format renders the canonical textual form of a spec: every default
// Parse applies is spelled out, parameters appear in a fixed order,
// and Parse(Format(s)) reproduces s exactly. The canonical bytes are
// also the input to Hash, so equivalent spellings of one scenario
// share an identity.
func Format(s *Spec) []byte {
	var b strings.Builder
	line := func(parts ...string) {
		b.WriteString(strings.Join(parts, " "))
		b.WriteByte('\n')
	}
	// params renders a key=value clause line: its head, its keys, then
	// tail (a block's opening brace).
	params := func(head string, c clause, tail string) {
		b.WriteString(head)
		formatParams(&b, c)
		b.WriteString(tail)
		b.WriteByte('\n')
	}
	// values renders one-value directives, one line each.
	values := func(indent string, c clause) {
		for _, pr := range c.params() {
			if !pr.omitted() {
				line(indent+pr.key, pr.String())
			}
		}
	}
	values("", s)
	params("mix", &s.Mix, "")
	params("policy", &s.Policy, "")
	params("budget "+s.Budget.Kind, &s.Budget, "")
	if s.Share != nil {
		params("share", s.Share, "")
	}
	for i := range s.Clients {
		c := &s.Clients[i]
		b.WriteByte('\n')
		line("client", c.Name, "{")
		values("  ", c)
		if len(c.Workloads) > 0 {
			line(append([]string{"  workloads"}, c.Workloads...)...)
		}
		params("  arrival "+c.Arrival.Process, &c.Arrival, "")
		line("}")
	}
	for i := range s.Faults {
		f := &s.Faults[i]
		b.WriteByte('\n')
		params("fault", f, " {")
		for j := range f.Events {
			params("  event "+string(f.Events[j].Kind), (*event)(&f.Events[j]), "")
		}
		line("}")
	}
	if ctl := s.Control; ctl != nil {
		b.WriteByte('\n')
		line("control", "{")
		if ctl.ReplaceEvicted {
			line("  replace-evicted")
		}
		if ctl.HasHealth {
			params("  health", &ctl.Health, "")
		}
		if ctl.HasScale {
			params("  scale", &ctl.Scale, "")
		}
		line("}")
	}
	return []byte(b.String())
}

// Hash is the spec's identity: FNV-1a 64 over the canonical form.
// Stochastic arrival streams are keyed by (run seed XOR Hash, client
// index), so two runs of the same scenario shape share draws while
// any edit to the spec reseeds every client.
func Hash(s *Spec) uint64 {
	h := fnv.New64a()
	h.Write(Format(s))
	return h.Sum64()
}

// formatParams renders a clause's keys in canonical order, each after
// a space, leaving out those omitted at zero.
func formatParams(b *strings.Builder, c clause) {
	for _, pr := range c.params() {
		if pr.omitted() {
			continue
		}
		b.WriteByte(' ')
		b.WriteString(pr.key)
		if _, flag := pr.val.(*bool); !flag {
			b.WriteByte('=')
			b.WriteString(pr.String())
		}
	}
}

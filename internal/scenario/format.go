package scenario

import (
	"hash/fnv"
	"strconv"
	"strings"

	"cuttlesys/internal/fault"
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
	line("scenario", s.Name)
	if s.Describe != "" {
		line("describe", s.Describe)
	}
	if s.Service != "" {
		line("service", s.Service)
	}
	if s.Machines > 0 {
		line("machines", strconv.Itoa(s.Machines))
	}
	if s.Slices > 0 {
		line("slices", strconv.Itoa(s.Slices))
	}
	if !s.Load.isZero() {
		line("load", s.Load.String())
	}
	if !s.Cap.isZero() {
		line("cap", s.Cap.String())
	}
	line("mix",
		"jobs="+strconv.Itoa(s.Mix.Jobs),
		"train="+strconv.Itoa(s.Mix.Train),
		"trainseed="+strconv.FormatUint(s.Mix.TrainSeed, 10))
	line("policy", "router="+s.Policy.Router, "arbiter="+s.Policy.Arbiter)
	line(append([]string{"budget", s.Budget.Kind},
		envParams(s.Budget.Kind, &s.Budget.Env, s.Budget.Absolute)...)...)
	if s.Share != nil {
		line("share",
			"syncperiod="+strconv.Itoa(s.Share.SyncPeriod),
			"decay="+s.Share.Decay.String(),
			"finetune="+strconv.Itoa(s.Share.FineTune),
			"confidence="+strconv.Itoa(s.Share.Confidence))
	}
	for i := range s.Clients {
		c := &s.Clients[i]
		b.WriteByte('\n')
		line("client", c.Name, "{")
		line("  fraction", c.Fraction.String())
		line("  slo", c.SLO)
		if len(c.Workloads) > 0 {
			line(append([]string{"  workloads"}, c.Workloads...)...)
		}
		line(append([]string{"  arrival"}, arrivalParams(&c.Arrival)...)...)
		line("}")
	}
	for i := range s.Faults {
		f := &s.Faults[i]
		b.WriteByte('\n')
		open := []string{"fault", "machine=" + strconv.Itoa(f.Machine)}
		if f.Salt != 0 {
			open = append(open, "salt=0x"+strconv.FormatUint(f.Salt, 16))
		}
		line(append(open, "{")...)
		for j := range f.Events {
			line(append([]string{"  event"}, eventParams(&f.Events[j])...)...)
		}
		line("}")
	}
	if s.Control != nil {
		b.WriteByte('\n')
		line("control", "{")
		if s.Control.ReplaceEvicted {
			line("  replace-evicted")
		}
		if s.Control.HasHealth {
			line(append([]string{"  health"}, healthParams(&s.Control.Health)...)...)
		}
		if s.Control.HasScale {
			line(append([]string{"  scale"}, scaleParams(&s.Control.Scale)...)...)
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

// envParams renders an envelope's parameters in canonical order for
// its kind.
func envParams(kind string, e *Envelope, absolute bool) []string {
	var out []string
	switch kind {
	case ProcConstant:
		out = append(out, "rate="+e.Rate.String())
	case ProcStep:
		out = append(out, "lo="+e.Lo.String(), "hi="+e.Hi.String(),
			"from="+e.From.String(), "to="+e.To.String())
	case ProcDiurnal:
		out = append(out, "lo="+e.Lo.String(), "hi="+e.Hi.String())
		if !e.Max.isZero() {
			out = append(out, "max="+e.Max.String())
		}
		out = append(out, "period="+e.Period.String())
		if !e.Phase.isZero() {
			out = append(out, "phase="+e.Phase.String())
		}
	}
	if absolute {
		out = append(out, "absolute")
	}
	return out
}

// arrivalParams renders one arrival clause in canonical order:
// process, envelope parameters, stochastic parameters, trace
// selection, absolute marker.
func arrivalParams(a *ArrivalSpec) []string {
	out := []string{a.Process}
	if isEnvelopeProc(a.Process) {
		out = append(out, envParams(a.Process, &a.Env, false)...)
		if a.Over != "" {
			out = append(out, "over="+a.Over)
		}
	} else {
		// Stochastic and trace processes carry their constant envelope
		// rate explicitly.
		out = append(out, "rate="+a.Env.Rate.String())
	}
	switch a.stochastic() {
	case ProcPoisson:
		out = append(out, "events="+a.Events.String())
	case ProcBursty:
		out = append(out, "cv="+a.CV.String())
	case ProcWeibull:
		out = append(out, "shape="+a.Shape.String())
	}
	if a.Process == ProcTrace {
		out = append(out, "file="+a.Trace.File, "client="+a.Trace.Client)
		if !a.Trace.Norm.isZero() {
			out = append(out, "norm="+a.Trace.Norm.String())
		}
	}
	if a.Absolute {
		out = append(out, "absolute")
	}
	return out
}

// eventParams renders one fault event, omitting per-kind fields left
// at their zero default.
func eventParams(e *fault.Event) []string {
	out := []string{string(e.Kind),
		"start=" + formatFloat(e.Start), "end=" + formatFloat(e.End)}
	if e.Cores != 0 {
		out = append(out, "cores="+strconv.Itoa(e.Cores))
	}
	if e.BatchCores != 0 {
		out = append(out, "batchcores="+strconv.Itoa(e.BatchCores))
	}
	if e.Factor != 0 {
		out = append(out, "factor="+formatFloat(e.Factor))
	}
	if e.BatchFactor != 0 {
		out = append(out, "batchfactor="+formatFloat(e.BatchFactor))
	}
	if e.Prob != 0 {
		out = append(out, "prob="+formatFloat(e.Prob))
	}
	if e.Magnitude != 0 {
		out = append(out, "magnitude="+formatFloat(e.Magnitude))
	}
	return out
}

func healthParams(h *HealthSpec) []string {
	var out []string
	addInt := func(k string, v int) {
		if v != 0 {
			out = append(out, k+"="+strconv.Itoa(v))
		}
	}
	addInt("suspectafter", h.SuspectAfter)
	addInt("quarantineafter", h.QuarantineAfter)
	addInt("recoverafter", h.RecoverAfter)
	addInt("releaseafter", h.ReleaseAfter)
	addInt("probationafter", h.ProbationAfter)
	if !h.ProbationWeight.isZero() {
		out = append(out, "probationweight="+h.ProbationWeight.String())
	}
	addInt("drainafter", h.DrainAfter)
	addInt("drainslices", h.DrainSlices)
	return out
}

func scaleParams(s *ScaleSpec) []string {
	var out []string
	addInt := func(k string, v int) {
		if v != 0 {
			out = append(out, k+"="+strconv.Itoa(v))
		}
	}
	if !s.UpUtil.isZero() {
		out = append(out, "uputil="+s.UpUtil.String())
	}
	if !s.DownUtil.isZero() {
		out = append(out, "downutil="+s.DownUtil.String())
	}
	addInt("upafter", s.UpAfter)
	addInt("downafter", s.DownAfter)
	addInt("cooldown", s.Cooldown)
	addInt("minadd", s.MinAdd)
	addInt("maxadd", s.MaxAdd)
	if !s.MinBudgetFrac.isZero() {
		out = append(out, "minbudgetfrac="+s.MinBudgetFrac.String())
	}
	return out
}

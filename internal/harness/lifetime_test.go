package harness_test

import (
	"fmt"
	"math"
	"testing"

	"cuttlesys/internal/baseline"
	"cuttlesys/internal/core"
	"cuttlesys/internal/fault"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/workload"
)

// poisoner hands the wrapped scheduler and fault plane every phase
// result unchanged and remembers the sojourn windows they were shown —
// every profiling attempt (validated, then decided on), the steady
// phase and the fault plane's originals — which is everything outside
// the driver that could hold on to one. poison overwrites them with
// NaN once the slice is over.
type poisoner struct {
	harness.Scheduler
	windows [][]float64
}

func (p *poisoner) keep(prs ...sim.PhaseResult) {
	for _, pr := range prs {
		p.windows = append(append(p.windows, pr.Sojourns), pr.ExtraSojourns...)
	}
}

func (p *poisoner) ValidateProfile(profile []sim.PhaseResult) error {
	p.keep(profile...)
	if v, ok := p.Scheduler.(harness.ProfileValidator); ok {
		return v.ValidateProfile(profile)
	}
	return nil
}

func (p *poisoner) DecideMulti(profile []sim.PhaseResult, qps []float64, budgetW float64) (sim.Allocation, float64) {
	p.keep(profile...)
	return p.Scheduler.DecideMulti(profile, qps, budgetW)
}

func (p *poisoner) EndSliceMulti(steady sim.PhaseResult, qps []float64) {
	p.keep(steady)
	p.Scheduler.EndSliceMulti(steady, qps)
}

func (p *poisoner) Degraded() bool {
	d, ok := p.Scheduler.(harness.DegradedReporter)
	return ok && d.Degraded()
}

func (p *poisoner) poison() (n int) {
	for _, w := range p.windows {
		for i := range w {
			w[i] = math.NaN()
		}
		n += len(w)
	}
	p.windows = p.windows[:0]
	return n
}

// observed is a fault plane whose ObservePhase originals go to the
// poisoner as well.
type observed struct {
	harness.FaultInjector
	p *poisoner
}

func (o observed) ObservePhase(t float64, res sim.PhaseResult, profiling bool) sim.PhaseResult {
	o.p.keep(res)
	return o.FaultInjector.ObservePhase(t, res, profiling)
}

// TestSojournWindowsEndWithTheSlice: the machine appends every phase's
// sojourns into the driver's buffers and each phase result's Sojourns
// is a window of them, reused from the next slice on. Overwriting every
// window the scheduler and the fault plane were shown with NaN after
// every StepSlice must leave every record unchanged: nothing — scheduler
// feedback, Flicker's profile reads, the fault plane's telemetry
// copies — may keep a window past its slice.
func TestSojournWindowsEndWithTheSlice(t *testing.T) {
	profile := func(name string) *workload.Profile {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	xapian, silo := profile("xapian"), profile("silo")
	_, pool := workload.SplitTrainTest(1, 16)
	batch := workload.Mix(3, pool, 16)
	type rig struct {
		m   *sim.Machine
		s   harness.Scheduler
		inj harness.FaultInjector
	}
	cases := []struct {
		name  string
		build func() rig
	}{
		{"cuttlesys-two-services", func() rig {
			m := sim.New(sim.Spec{Seed: 5, LC: xapian, ExtraLCs: []*workload.Profile{silo}, Batch: batch, Reconfigurable: true})
			return rig{m: m, s: core.New(m, core.Params{Seed: 5})}
		}},
		{"flicker", func() rig {
			m := sim.New(sim.Spec{Seed: 6, LC: xapian, Batch: batch, Reconfigurable: true})
			return rig{m: m, s: baseline.NewFlicker(m, false, 6)}
		}},
		{"cuttlesys-telemetry-faults", func() rig {
			m := sim.New(sim.Spec{Seed: 7, LC: silo, Batch: batch, Reconfigurable: true})
			inj, err := fault.NewSchedule(7,
				fault.Event{Kind: fault.ProfileCorrupt, Start: 0.1, End: 0.4},
				fault.Event{Kind: fault.TelemetryGarbage, Start: 0.3, End: 0.6})
			if err != nil {
				t.Fatal(err)
			}
			return rig{m: m, s: core.New(m, core.Params{Seed: 7}), inj: inj}
		}},
	}
	const slices = 8
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(poison bool) []string {
				r := c.build()
				p := &poisoner{Scheduler: r.s}
				var inj harness.FaultInjector
				if r.inj != nil {
					inj = observed{r.inj, p}
				}
				d, err := harness.NewDriver(r.m, p, inj)
				if err != nil {
					t.Fatal(err)
				}
				defer d.Detach()
				budgetW := 0.7 * r.m.MaxPowerW()
				qps := []float64{0.5 * r.m.LC().MaxQPS}
				for _, x := range r.m.ExtraLCs() {
					qps = append(qps, 0.4*x.MaxQPS)
				}
				var recs []string
				for sl := 0; sl < slices; sl++ {
					rec, err := d.StepSlice(qps, 0.5, budgetW)
					if err != nil {
						t.Fatal(err)
					}
					recs = append(recs, fmt.Sprintf("%+v", rec))
					if !poison {
						p.windows = p.windows[:0]
					} else if p.poison() == 0 {
						t.Fatalf("slice %d showed no sojourns to poison", sl)
					}
				}
				return recs
			}
			want, got := run(false), run(true)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("slice %d changed when the previous slices' sojourns were poisoned:\nclean    %s\npoisoned %s", i, want[i], got[i])
				}
			}
		})
	}
}

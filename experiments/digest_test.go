package experiments

import (
	"testing"

	"cuttlesys/internal/pin"
)

// digestSetup is the smoke scale of the digest pins: one service, one
// mix, six slices, every other field at its default.
func digestSetup() Setup {
	return Setup{Seed: 1, Services: []string{"xapian"}, MixesPerService: 1, Slices: 6}
}

// TestExperimentDigests pins, at smoke scale, a full-precision digest
// of everything each deterministic experiment returns. Table II is left
// out: it reports host wall time. The digests are pinned in
// testdata/pins.json under each case's name.
func TestExperimentDigests(t *testing.T) {
	cases := []struct {
		name string
		run  func() ([]any, error)
	}{
		{"fig1", func() ([]any, error) {
			rows := Fig1(nil, 1, 0)
			return []any{rows, BestTradeoff(rows, 0.8)}, nil
		}},
		{"trainsweep", func() ([]any, error) {
			return []any{TrainingSetSweep()}, nil
		}},
		{"fig5a", func() ([]any, error) {
			return []any{Fig5aIsolation(1)}, nil
		}},
		{"fig5b", func() ([]any, error) {
			rows, err := Fig5bColocation(digestSetup())
			return []any{rows}, err
		}},
		{"fig5c", func() ([]any, error) {
			rows, err := Fig5cPowerCapSweep(digestSetup())
			return []any{rows}, err
		}},
		{"fig7", func() ([]any, error) {
			rows, err := Fig7InstrPerSlice(2)
			return []any{rows}, err
		}},
		{"fig8a", func() ([]any, error) {
			recs, err := Dynamics(ScenarioVaryingLoad, 3, 6)
			return []any{recs}, err
		}},
		{"fig8b", func() ([]any, error) {
			recs, err := Dynamics(ScenarioVaryingBudget, 3, 6)
			return []any{recs}, err
		}},
		{"fig8c", func() ([]any, error) {
			recs, err := Dynamics(ScenarioRelocation, 3, 6)
			return []any{recs}, err
		}},
		{"flicker", func() ([]any, error) {
			rows, err := FlickerQoSComparison(digestSetup())
			return []any{rows}, err
		}},
		{"fig9", func() ([]any, error) {
			return []any{Fig9RBFvsSGD(1)}, nil
		}},
		{"fig10a", func() ([]any, error) {
			points, budget := Fig10aExploration(6, 0.7)
			return []any{points, budget}, nil
		}},
		{"fig10b", func() ([]any, error) {
			rows, err := Fig10bDDSvsGA(digestSetup())
			return []any{rows}, err
		}},
		{"ablation", func() ([]any, error) {
			rows, err := Ablation(digestSetup())
			return []any{rows}, err
		}},
		{"proportionality", func() ([]any, error) {
			rows, err := EnergyProportionality(1)
			return []any{rows, DynamicRange(rows, "fixed"), DynamicRange(rows, "cuttlesys")}, err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			vs, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			h := pin.New()
			h.Value(vs...)
			pin.Check(t, c.name, h.Sum64())
		})
	}
}

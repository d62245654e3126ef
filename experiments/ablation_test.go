package experiments

import (
	"strings"
	"testing"
)

func TestAblationGuards(t *testing.T) {
	rows, err := Ablation(Setup{
		Seed: 1, Services: []string{"xapian"}, MixesPerService: 1,
		Slices: 8, LoadFrac: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	full, ok := byName["full"]
	if !ok {
		t.Fatal("missing full variant")
	}
	if full.QoSViolations > 0 {
		t.Errorf("full runtime violated QoS %d times", full.QoSViolations)
	}
	// Every variant must at least run and produce work.
	for name, r := range byName {
		if r.TotalInstrB <= 0 {
			t.Errorf("%s executed nothing", name)
		}
	}
	// Removing the utilisation veto exposes the scheduler to the
	// saturation knee: it must never be safer than the full runtime.
	if nv := byName["no-util-veto"]; nv.WorstP99Ratio < full.WorstP99Ratio {
		t.Errorf("removing the util veto should not improve worst p99 (%.2f vs %.2f)",
			nv.WorstP99Ratio, full.WorstP99Ratio)
	}
}

func TestEnergyProportionality(t *testing.T) {
	rows, err := EnergyProportionality(1)
	if err != nil {
		t.Fatal(err)
	}
	fixed := DynamicRange(rows, "fixed")
	cuttle := DynamicRange(rows, "cuttlesys")
	// §I: reconfigurable cores reduce idle power — the CuttleSys curve
	// must be meaningfully more proportional than the fixed design's
	// near-flat one.
	if fixed < 0.9 {
		t.Errorf("fixed design should be nearly flat (idle/peak %.2f)", fixed)
	}
	if cuttle > fixed-0.1 {
		t.Errorf("CuttleSys idle/peak %.2f should be well below fixed %.2f", cuttle, fixed)
	}
	// No QoS price for proportionality: covered by the runtime tests;
	// here ensure the curve is monotone-ish (peak load costs the most).
	var loPower, hiPower float64
	for _, r := range rows {
		if r.Design != "cuttlesys" {
			continue
		}
		switch r.LoadFrac {
		case 0.1:
			loPower = r.PowerW
		case 1.0:
			hiPower = r.PowerW
		}
	}
	if loPower >= hiPower {
		t.Errorf("CuttleSys power should rise with load: %.1f -> %.1f W", loPower, hiPower)
	}
}

// TestEnergyProportionalityRefusesSeedZero: the LC-only machine pins
// its mix to the run seed, and a mix seed of 0 would unpin it; the
// study must refuse it, saying why, rather than run another machine.
func TestEnergyProportionalityRefusesSeedZero(t *testing.T) {
	_, err := EnergyProportionality(0)
	if err == nil || !strings.Contains(err.Error(), "mix seed 0") {
		t.Fatalf("seed 0: error %v, want one naming mix seed 0", err)
	}
}

func TestDVFSBaselineInHarness(t *testing.T) {
	// The maxBIPS DVFS extension must slot into the same comparison
	// machinery as the paper's policies.
	s := Setup{Seed: 2, Services: []string{"silo"}, MixesPerService: 1, Slices: 6}.withDefaults()
	res, _, err := s.cell(cell{policy: PolicyDVFS, cap: 0.75}, "silo", 40).run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalInstrB() <= 0 {
		t.Fatal("DVFS executed nothing")
	}
	if n := res.BudgetViolations(0.08); n > 1 {
		t.Errorf("DVFS exceeded budget on %d slices", n)
	}
}

func TestWriteAblationAndProportionality(t *testing.T) {
	var b strings.Builder
	WriteAblation(&b, []AblationRow{{Variant: "full", TotalInstrB: 1}})
	WriteProportionality(&b, []ProportionalityRow{
		{Design: "fixed", LoadFrac: 0.1, PowerW: 50},
		{Design: "fixed", LoadFrac: 1.0, PowerW: 60},
	})
	if b.Len() == 0 {
		t.Fatal("writers produced nothing")
	}
}

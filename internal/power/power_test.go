package power

import (
	"testing"
	"testing/quick"

	"cuttlesys/internal/config"
	"cuttlesys/internal/workload"
)

func TestCorePowerRange(t *testing.T) {
	m := New(true)
	for _, app := range workload.All() {
		hi := m.Core(app, config.Widest, 4)
		lo := m.Core(app, config.Narrowest, 1)
		if hi < 2.0 || hi > 5.0 {
			t.Errorf("%s: widest-core power %v outside the 2-5 W calibration band", app.Name, hi)
		}
		if lo < 0.5 || lo > 2.0 {
			t.Errorf("%s: narrowest-core power %v outside the 0.5-2 W calibration band", app.Name, lo)
		}
		if hi/lo < 2 {
			t.Errorf("%s: reconfiguration power range %v too small to matter", app.Name, hi/lo)
		}
	}
}

// Power must be monotone in every section width — downsizing always
// saves power, or the scheduler's search space would be ill-posed.
func TestCorePowerMonotoneInWidths(t *testing.T) {
	m := New(true)
	app := workload.SPEC()[0]
	for _, base := range config.AllCores() {
		p0 := m.Core(app, base, 2)
		for _, section := range []config.Section{config.FrontEnd, config.BackEnd, config.LoadStore} {
			up := base
			switch section {
			case config.FrontEnd:
				if base.FE == config.W6 {
					continue
				}
				up.FE = base.FE + 2
			case config.BackEnd:
				if base.BE == config.W6 {
					continue
				}
				up.BE = base.BE + 2
			case config.LoadStore:
				if base.LS == config.W6 {
					continue
				}
				up.LS = base.LS + 2
			}
			if p1 := m.Core(app, up, 2); p1 <= p0 {
				t.Fatalf("power did not rise widening %v of %v: %v -> %v", section, base, p0, p1)
			}
		}
	}
}

func TestReconfigEnergyPenalty(t *testing.T) {
	app := workload.SPEC()[0]
	pr := New(true).Core(app, config.Widest, 3)
	pf := New(false).Core(app, config.Widest, 3)
	want := pf * 1.18
	if diff := pr - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("reconfigurable power %v, want fixed*1.18 = %v", pr, want)
	}
}

func TestPowerGrowsWithIPC(t *testing.T) {
	m := New(true)
	app := workload.SPEC()[0]
	if m.Core(app, config.Widest, 5) <= m.Core(app, config.Widest, 1) {
		t.Fatal("dynamic power should grow with achieved IPC")
	}
}

func TestPowerActivityFactor(t *testing.T) {
	m := New(true)
	hot := *workload.SPEC()[0]
	cold := hot
	hot.Activity, cold.Activity = 1.2, 0.7
	if m.Core(&hot, config.Widest, 3) <= m.Core(&cold, config.Widest, 3) {
		t.Fatal("higher-activity app should draw more power")
	}
}

func TestUtilisationClamps(t *testing.T) {
	if utilisation(-1) != 0.6 {
		t.Error("negative IPC should clamp to floor utilisation")
	}
	if utilisation(100) != 1 {
		t.Error("huge IPC should clamp to full utilisation")
	}
}

func TestLLCAndUncore(t *testing.T) {
	m := New(true)
	if m.LLC(32) <= m.LLC(16) {
		t.Error("LLC power should grow with powered ways")
	}
	if m.LLC(-5) != 0 {
		t.Error("negative ways should clamp to zero power")
	}
	if m.Uncore(32) != 32*UncorePerCoreW {
		t.Error("uncore power wrong")
	}
}

func TestFig1PowerBand(t *testing.T) {
	// Fig. 1: a 16-core slice spans roughly 15-60 W across configs.
	m := New(true)
	for _, app := range workload.TailBench() {
		hi := 16 * m.Core(app, config.Widest, 3)
		lo := 16 * m.Core(app, config.Narrowest, 0.8)
		if hi > 65 || lo < 10 {
			t.Errorf("%s: 16-core band [%v, %v] outside Fig. 1's range", app.Name, lo, hi)
		}
	}
}

func TestGatedResidualBelowAnyActive(t *testing.T) {
	m := New(true)
	if err := quick.Check(func(seed uint64, ci uint8) bool {
		app := workload.Synthetic(seed, 1)[0]
		c := config.CoreByIndex(int(ci) % config.NumCoreConfigs)
		return m.Core(app, c, 0.1) > GatedCoreW
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDVFSVddRange(t *testing.T) {
	if got := DVFSVdd(config.BaseFreqGHz); got != config.VddVolts {
		t.Fatalf("nominal Vdd = %v, want %v", got, config.VddVolts)
	}
	if got := DVFSVdd(0); got != vddFloor {
		t.Fatalf("floor Vdd = %v, want %v", got, vddFloor)
	}
	if DVFSVdd(5) != config.VddVolts {
		t.Fatal("Vdd must clamp at nominal")
	}
	prev := 0.0
	for _, f := range []float64{1, 2, 3, 4} {
		v := DVFSVdd(f)
		if v < prev {
			t.Fatal("Vdd must be non-decreasing in frequency")
		}
		prev = v
	}
}

func TestCoreAtDVFSSavesPower(t *testing.T) {
	m := New(false)
	app := workload.SPEC()[0]
	full := m.CoreAtDVFS(app, config.Widest, 3, 4.0)
	slow := m.CoreAtDVFS(app, config.Widest, 3, 2.4)
	if slow >= full {
		t.Fatal("downclocking must save power")
	}
	// §II-A: the razor-thin voltage range caps DVFS savings well above
	// what width reconfiguration achieves (narrowest config is ~1/3 of
	// widest; the lowest DVFS step stays above 45%).
	if slow < 0.45*full {
		t.Fatalf("DVFS savings too deep for the voltage floor: %v of %v", slow, full)
	}
	if got := m.CoreAtDVFS(app, config.Widest, 3, 4.0); got != m.Core(app, config.Widest, 3) {
		t.Fatalf("Core must equal CoreAtDVFS at nominal: %v vs %v", m.Core(app, config.Widest, 3), got)
	}
}

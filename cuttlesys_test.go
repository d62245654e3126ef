package cuttlesys_test

import (
	"testing"

	"cuttlesys"
	"cuttlesys/internal/scenario"
)

// The facade must run every registered policy end to end through a
// one-machine spec — this is the library's contract with downstream
// users.
func TestPublicAPIEndToEnd(t *testing.T) {
	for _, def := range scenario.Schedulers {
		t.Run(def.Name, func(t *testing.T) {
			spec, err := cuttlesys.ParseScenario([]byte(`scenario end-to-end
service silo
machines 1
slices 3
load 0.7
cap 0.8
mix seed=9
policy scheduler=` + def.Name + "\n"))
			if err != nil {
				t.Fatal(err)
			}
			comp, err := cuttlesys.CompileScenario(spec, cuttlesys.ScenarioOptions{Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			res, sched, err := comp.RunMachine(nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Slices) != 3 {
				t.Fatalf("%s: %d slices", def.Name, len(res.Slices))
			}
			if res.TotalInstrB() <= 0 {
				t.Fatalf("%s: no work", def.Name)
			}
			if res.Scheduler != sched.Name() {
				t.Fatalf("%s: result names %q, scheduler %q", def.Name, res.Scheduler, sched.Name())
			}
		})
	}
}

func TestCatalogExposed(t *testing.T) {
	for _, name := range []string{"xapian", "masstree", "imgdnn", "moses", "silo"} {
		if app := mustApp(t, name); app.Class != cuttlesys.LatencyCritical {
			t.Fatalf("%s is not latency-critical", name)
		}
	}
	if train, test := cuttlesys.SplitTrainTest(1, 16); len(train)+len(test) != 28 {
		t.Fatalf("SPEC split: %d + %d apps", len(train), len(test))
	}
	if _, err := cuttlesys.AppByName("not-a-benchmark"); err == nil {
		t.Fatal("AppByName should reject unknown names")
	}
}

func TestCustomProfileValidates(t *testing.T) {
	p := &cuttlesys.Profile{
		Name: "svc", Class: cuttlesys.LatencyCritical,
		ILP: 2, FESens: 0.3, BESens: 0.1, LSSens: 0.5, BrMPKI: 3,
		MemFrac: 0.4, L1MissRate: 0.1, MLP: 4,
		WSWays: 3, MissFloor: 0.1, MissCeil: 0.7, MissSteep: 1.4,
		Activity: 0.9,
		MaxQPS:   10000, QoSTargetMs: 5, QuerySigma: 0.5, SatUtil: 0.75,
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("valid custom profile rejected: %v", err)
	}
	p.MaxQPS = 0
	if err := p.Validate(); err == nil {
		t.Fatal("invalid custom profile accepted")
	}
}

func TestPatternsExposed(t *testing.T) {
	if cuttlesys.ConstantLoad(0.5)(3) != 0.5 {
		t.Fatal("ConstantLoad broken")
	}
	if cuttlesys.StepLoad(0.2, 0.9, 1, 2)(1.5) != 0.9 {
		t.Fatal("StepLoad broken")
	}
	if cuttlesys.ConstantBudget(0.6)(3) != 0.6 {
		t.Fatal("ConstantBudget broken")
	}
	if cuttlesys.SliceDur != 0.1 {
		t.Fatal("SliceDur should be the paper's 100 ms quantum")
	}
}

func TestMultiServiceFacade(t *testing.T) {
	xapian := mustApp(t, "xapian")
	silo := mustApp(t, "silo")
	_, pool := cuttlesys.SplitTrainTest(1, 16)
	m := cuttlesys.NewMachine(cuttlesys.MachineSpec{
		Seed: 33, LC: xapian, ExtraLCs: []*cuttlesys.Profile{silo},
		Batch: cuttlesys.Mix(33, pool, 16), Reconfigurable: true,
	})
	rt := cuttlesys.NewRuntime(m, cuttlesys.RuntimeParams{Seed: 33})
	res, err := cuttlesys.Run(m, rt, 4,
		[]cuttlesys.LoadPattern{cuttlesys.ConstantLoad(0.4), cuttlesys.ConstantLoad(0.3)},
		cuttlesys.ConstantBudget(0.8))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Slices) != 4 || res.TotalInstrB() <= 0 {
		t.Fatal("multi-service facade run failed")
	}
	if len(res.Slices[0].ExtraP99Ms) != 1 {
		t.Fatal("extra-service records missing")
	}
}

// mustApp resolves a service profile via the facade, failing the test
// on a bad name so the error is never silently dropped.
func mustApp(t testing.TB, name string) *cuttlesys.Profile {
	t.Helper()
	app, err := cuttlesys.AppByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

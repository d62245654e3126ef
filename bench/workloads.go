package main

import (
	"embed"
	"fmt"
	"math"

	"cuttlesys/internal/baseline"
	"cuttlesys/internal/core"
	"cuttlesys/internal/ctrlplane"
	"cuttlesys/internal/fleet"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/modelplane"
	"cuttlesys/internal/obs"
	"cuttlesys/internal/scenario"
	"cuttlesys/internal/sgd"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/workload"
)

//go:embed specs/*.spec
var specFS embed.FS

// A workload is one seeded input set. stepsPerSec is the step rate of
// the reference host (2-core 2.1 GHz Xeon), used only to turn a run
// length in seconds into a fixed slice count: the horizon shapes the
// compiled patterns, so it must be known before the first step.
type workloadDef struct {
	name        string
	why         string
	layer       string // scheduler layer the decorators time: core or baseline
	stepsPerSec float64
	build       func(seed uint64, slices int, tr *tracer) (*rig, error)
}

var workloads = []workloadDef{
	{
		name: "fleet-steady", layer: "core", stepsPerSec: 10,
		why:   "fleet headline path: 8 machines of full CuttleSys control, so sgd/dds/core dominate wall time and the slowest machine sets p95",
		build: buildFleetSteady,
	},
	{
		name: "single-machine", layer: "core", stepsPerSec: 45,
		why:   "one step is one decision quantum (Table II latency vs the 100 ms deadline), two services, long horizon; bypasses fleet, ctrlplane, modelplane, scenario",
		build: buildSingleMachine,
	},
	{
		name: "substrate-baselines", layer: "baseline", stepsPerSec: 250,
		why:   "16 machines under non-learning policies: no sgd, no dds, so wall time is sim+qsim+perf+power+harness+fleet fold; controller changes must not move it",
		build: buildSubstrateBaselines,
	},
	{
		name: "ops-churn", layer: "core", stepsPerSec: 16,
		why:   "managed fleet with faults, bursty arrivals, factor sharing and warm-started replacements: the only workload where ctrlplane, modelplane, fault and scenario arrivals do work",
		build: buildOpsChurn,
	},
}

func workloadByName(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// warmupSlices is how many leading steps a run of the given length
// excludes from wall-time statistics (cold model, sampling quanta, SVD
// init). sim.* metrics and digests cover every slice.
func warmupSlices(slices int) int {
	if slices >= 20 {
		return 10
	}
	return slices / 3
}

// A rig is one assembled workload: the stepping closure plus the
// handles the traced run reads its per-layer counts from.
type rig struct {
	machines func() int // machines the next step will attempt
	step     func(*stepOut, *digest) error
	close    func()

	recorder *obs.Recorder
	runtimes func() []*core.Runtime // a closure: provisioning adds runtimes mid-run
	plane    *modelplane.Plane
	mgr      *ctrlplane.Manager
	surface  func() (builds, lookups uint64)
}

// compileSpec parses an embedded spec and compiles it for the run. The
// specs declare fault windows in seconds at their own slice count;
// windows are rescaled so a shorter or longer run keeps the same
// sequence of events.
func compileSpec(name string, seed uint64, slices int) (*scenario.Compiled, error) {
	src, err := specFS.ReadFile("specs/" + name + ".spec")
	if err != nil {
		return nil, err
	}
	spec, err := scenario.Parse(src)
	if err != nil {
		return nil, err
	}
	if slices != spec.Slices {
		scale := float64(slices) / float64(spec.Slices)
		for i := range spec.Faults {
			for j := range spec.Faults[i].Events {
				ev := &spec.Faults[i].Events[j]
				ev.Start *= scale
				if !math.IsInf(ev.End, 1) {
					ev.End *= scale
				}
			}
		}
	}
	return scenario.Compile(spec, scenario.Options{Seed: seed, Slices: slices})
}

// fleetRig steps a bare or managed fleet under cluster-level patterns,
// the same loop fleet.Run and ctrlplane.Manager.Run execute.
func fleetRig(f *fleet.Fleet, mgr *ctrlplane.Manager, load harness.LoadPattern, budget harness.BudgetPattern) *rig {
	r := &rig{mgr: mgr, machines: f.Size, close: f.Close, surface: f.SurfaceStats}
	r.step = func(out *stepOut, h *digest) error {
		t := f.Now()
		offered, budgetW := load(t)*f.CapacityQPS(), budget(t)*f.RefPowerW()
		var rec fleet.SliceRecord
		if mgr != nil {
			mrec, err := mgr.Step(offered, budgetW)
			if err != nil {
				return err
			}
			rec = mrec.SliceRecord
			out.unroutedQPS = mrec.UnroutedQPS
			h.float(mrec.UnroutedQPS)
			h.int(mrec.Serving)
			for _, st := range mrec.States {
				h.str(st)
			}
		} else {
			var err error
			if rec, err = f.Step(offered, budgetW); err != nil {
				return err
			}
		}
		foldFleetRecord(out, h, &rec, f.Telemetry())
		return nil
	}
	return r
}

func buildFleetSteady(seed uint64, slices int, tr *tracer) (*rig, error) {
	c, err := compileSpec("fleet-steady", seed, slices)
	if err != nil {
		return nil, err
	}
	if tr == nil {
		f, err := c.BuildFleet(nil, nil)
		if err != nil {
			return nil, err
		}
		return fleetRig(f, nil, c.LoadPat, c.BudgetPat), nil
	}
	return buildReplica(c, tr)
}

func buildOpsChurn(seed uint64, slices int, tr *tracer) (*rig, error) {
	c, err := compileSpec("ops-churn", seed, slices)
	if err != nil {
		return nil, err
	}
	if tr == nil {
		mgr, err := c.BuildControlPlane(nil, nil)
		if err != nil {
			return nil, err
		}
		return fleetRig(mgr.Fleet(), mgr, c.LoadPat, c.BudgetPat), nil
	}
	return buildReplica(c, tr)
}

// buildReplica assembles, from public pieces only, the fleet or
// managed fleet that scenario.Compiled.BuildFleet / BuildControlPlane
// would build, with the bench's decorators installed, machines
// stepped serially and an obs.Recorder attached. The replica must
// match the scenario engine bit for bit; the digest check enforces it.
func buildReplica(c *scenario.Compiled, tr *tracer) (*rig, error) {
	lc, err := workload.ByName(c.Service)
	if err != nil {
		return nil, err
	}
	_, pool := workload.SplitTrainTest(c.Spec.Mix.TrainSeed, c.Spec.Mix.Train)
	router, arbiter, err := c.Policy()
	if err != nil {
		return nil, err
	}
	recorder := obs.NewRecorder()
	var runtimes []*core.Runtime
	node := func(id int, seed uint64) fleet.NodeSpec {
		m := sim.New(sim.Spec{
			Seed: seed, LC: lc, Reconfigurable: true,
			Batch: workload.Mix(seed, pool, c.Spec.Mix.Jobs),
		})
		rt := core.New(m, core.Params{
			Seed:          seed,
			ShareFactors:  c.Spec.Share != nil,
			SGD:           sgd.Params{Deterministic: true},
			TrackAccuracy: true,
		})
		runtimes = append(runtimes, rt)
		return fleet.NodeSpec{Machine: m, Scheduler: &tracedRuntime{Runtime: rt, tracedTimer: newTracedTimer(tr, "core", id)}}
	}
	seeds := fleet.Seeds(c.Seed, c.Machines)
	specs := make([]fleet.NodeSpec, c.Machines)
	for i := range specs {
		specs[i] = node(i, seeds[i])
		if specs[i].Injector, err = c.Injector(i, seeds[i]); err != nil {
			return nil, err
		}
	}
	fcfg := fleet.Config{
		Router:    tracedRouter{Router: router, tr: tr},
		Arbiter:   tracedArbiter{Arbiter: arbiter, tr: tr},
		Workers:   1,
		Collector: recorder,
	}
	var plane *modelplane.Plane
	if sh := c.Spec.Share; sh != nil {
		plane = modelplane.New(modelplane.Params{
			SyncPeriod: sh.SyncPeriod, Decay: sh.Decay.Value(),
			FineTuneIters: sh.FineTune, WarmConfidence: sh.Confidence,
		}, recorder)
		fcfg.Share = tracedPlane{pl: plane, tr: tr}
	}

	var r *rig
	if !c.Managed {
		f, err := fleet.New(fcfg, specs...)
		if err != nil {
			return nil, err
		}
		r = fleetRig(f, nil, c.LoadPat, c.BudgetPat)
	} else {
		cfg := ctrlplane.Config{Fleet: fcfg, Health: healthConfig(c.Spec.Control), Scale: scaleConfig(c)}
		cfg.Scale.Seed = c.Seed ^ scenario.ProvisionSalt
		cfg.Scale.Provision = tracedProvision(tr, func(id int, seed uint64) (fleet.NodeSpec, error) {
			return node(id, seed), nil
		})
		if plane != nil {
			cfg.WarmStart = tracedPlane{pl: plane, tr: tr}
		}
		mgr, err := ctrlplane.New(cfg, specs...)
		if err != nil {
			return nil, err
		}
		r = fleetRig(mgr.Fleet(), mgr, c.LoadPat, c.BudgetPat)
	}
	r.recorder, r.plane = recorder, plane
	r.runtimes = func() []*core.Runtime { return runtimes }
	return r, nil
}

// healthConfig and scaleConfig lower a spec's control clause from its
// public fields, mirroring the scenario engine's own lowering.
func healthConfig(ctl *scenario.ControlSpec) ctrlplane.HealthConfig {
	if ctl == nil || !ctl.HasHealth {
		return ctrlplane.HealthConfig{}
	}
	h := ctl.Health
	return ctrlplane.HealthConfig{
		SuspectAfter: h.SuspectAfter, QuarantineAfter: h.QuarantineAfter,
		RecoverAfter: h.RecoverAfter, ReleaseAfter: h.ReleaseAfter,
		ProbationAfter: h.ProbationAfter, ProbationWeight: h.ProbationWeight.Value(),
		DrainAfter: h.DrainAfter, DrainSlices: h.DrainSlices,
	}
}

func scaleConfig(c *scenario.Compiled) ctrlplane.ScaleConfig {
	ctl := c.Spec.Control
	cfg := ctrlplane.ScaleConfig{ReplaceEvicted: ctl.ReplaceEvicted}
	if ctl.HasScale {
		sc := ctl.Scale
		cfg.UpUtil, cfg.DownUtil = sc.UpUtil.Value(), sc.DownUtil.Value()
		cfg.UpAfter, cfg.DownAfter, cfg.Cooldown = sc.UpAfter, sc.DownAfter, sc.Cooldown
		cfg.MinMachines = c.Machines + sc.MinAdd
		if sc.MaxAdd > 0 {
			cfg.MaxMachines = c.Machines + sc.MaxAdd
		}
		cfg.MinBudgetFrac = sc.MinBudgetFrac.Value()
	}
	return cfg
}

// Single-machine workload: xapian and silo share one 32-core machine
// with 16 batch jobs, stepped through harness.Driver directly. As on
// the substrate workload the job mix belongs to the workload, not to
// the seed: which configurations the controller explores, and so how
// fast its matrices fill and its decisions slow down, depends on the
// mix. The seed drives the machine's and the controller's random
// streams.
const (
	singleMixSeed       = 1
	singleDiurnalLo     = 0.2
	singleDiurnalHi     = 0.45
	singleDiurnalPeriod = 20.0 // seconds of simulated time
	singleSiloLo        = 0.2
	singleSiloHi        = 0.42
	singleBudgetHi      = 0.8
	singleBudgetLo      = 0.6
)

func buildSingleMachine(seed uint64, slices int, tr *tracer) (*rig, error) {
	xapian, err := workload.ByName("xapian")
	if err != nil {
		return nil, err
	}
	silo, err := workload.ByName("silo")
	if err != nil {
		return nil, err
	}
	_, pool := workload.SplitTrainTest(1, 16)
	m := sim.New(sim.Spec{
		Seed: seed, LC: xapian, ExtraLCs: []*workload.Profile{silo},
		Batch: workload.Mix(singleMixSeed, pool, 16), Reconfigurable: true,
	})
	rt := core.New(m, core.Params{
		Seed: seed, SGD: sgd.Params{Deterministic: true}, TrackAccuracy: tr != nil,
	})
	var sched harness.MultiScheduler = rt
	if tr != nil {
		sched = &tracedRuntime{Runtime: rt, tracedTimer: newTracedTimer(tr, "core", 0)}
	}
	d, err := harness.NewDriver(m, sched, nil)
	if err != nil {
		return nil, err
	}
	r := &rig{
		machines: func() int { return 1 },
		close:    d.Detach,
		surface:  m.SurfaceStats,
	}
	if tr != nil {
		r.recorder = obs.NewRecorder()
		d.SetCollector(r.recorder)
		r.runtimes = func() []*core.Runtime { return []*core.Runtime{rt} }
	}
	span := float64(slices) * harness.SliceDur
	loads := []harness.LoadPattern{
		harness.DiurnalLoad(singleDiurnalLo, singleDiurnalHi, singleDiurnalPeriod),
		harness.StepLoad(singleSiloLo, singleSiloHi, 0.4*span, 0.8*span),
	}
	budget := harness.StepBudget(singleBudgetHi, singleBudgetLo, span/3, span*2/3)
	maxPower := m.MaxPowerW()
	r.step = func(out *stepOut, h *digest) error {
		t := m.Now()
		loadFrac := loads[0](t)
		qps := []float64{loadFrac * xapian.MaxQPS, loads[1](t) * silo.MaxQPS}
		rec, err := d.StepSlice(qps, loadFrac, budget(t)*maxPower)
		if err != nil {
			return err
		}
		foldMachineRecord(out, h, &rec)
		return nil
	}
	return r, nil
}

// Substrate workload: 16 silo machines on fixed cores, each under one
// of four non-learning policies, so no reconstruction and no search
// ever runs. The job mixes belong to the workload, not to the seed: a
// baseline's decision cost depends on the mix it sees (UCP lookahead,
// the oracle's big/little sweep), and a run-to-run change of the work
// itself would hide a substrate regression. The seed drives every
// random stream: arrivals, service demand, profiling noise.
const (
	substrateMachines = 16
	substrateMixSeed  = 1
	substrateLoadLo   = 0.3
	substrateLoadHi   = 0.9
	substrateCap      = 0.7
	substratePeriod   = 20.0 // seconds of simulated time
)

func buildSubstrateBaselines(seed uint64, slices int, tr *tracer) (*rig, error) {
	silo, err := workload.ByName("silo")
	if err != nil {
		return nil, err
	}
	_, pool := workload.SplitTrainTest(1, 16)
	seeds := fleet.Seeds(seed, substrateMachines)
	mixSeeds := fleet.Seeds(substrateMixSeed, substrateMachines)
	specs := make([]fleet.NodeSpec, substrateMachines)
	for i := range specs {
		m := sim.New(sim.Spec{Seed: seeds[i], LC: silo, Batch: workload.Mix(mixSeeds[i], pool, 16)})
		var policy harness.Scheduler
		switch i % 4 {
		case 0:
			// UCP way-partitioning on the first gating machine only: its
			// lookahead costs as much host time as a whole machine-slice of
			// simulation, and on all four it would turn a quarter of this
			// workload into a benchmark of the baseline, not the substrate.
			policy = baseline.NewCoreGating(m, baseline.DescendingPower, i == 0, seeds[i])
		case 1:
			policy = baseline.NewAsymmetric(m, true)
		case 2:
			policy = baseline.NewNoGating(m)
		default:
			policy = baseline.NewDVFS(m, seeds[i])
		}
		sched := harness.Single(policy)
		if tr != nil {
			sched = &tracedBaseline{MultiScheduler: sched, tracedTimer: newTracedTimer(tr, "baseline", i)}
		}
		specs[i] = fleet.NodeSpec{Machine: m, Scheduler: sched}
	}
	cfg := fleet.Config{Router: fleet.LeastLoaded{}, Arbiter: fleet.Headroom{}}
	var recorder *obs.Recorder
	if tr != nil {
		recorder = obs.NewRecorder()
		cfg = fleet.Config{
			Router:  tracedRouter{Router: cfg.Router, tr: tr},
			Arbiter: tracedArbiter{Arbiter: cfg.Arbiter, tr: tr},
			Workers: 1, Collector: recorder,
		}
	}
	f, err := fleet.New(cfg, specs...)
	if err != nil {
		return nil, err
	}
	r := fleetRig(f, nil,
		harness.DiurnalLoad(substrateLoadLo, substrateLoadHi, substratePeriod),
		harness.ConstantBudget(substrateCap))
	r.recorder = recorder
	return r, nil
}

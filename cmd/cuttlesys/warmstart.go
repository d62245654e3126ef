package main

import (
	"fmt"
	"math"

	"cuttlesys/internal/core"
	"cuttlesys/internal/ctrlplane"
	"cuttlesys/internal/fault"
	"cuttlesys/internal/fleet"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/modelplane"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/workload"
)

const (
	// warmJobs is the batch-mix size on every drill machine.
	warmJobs = 8
	// warmFaultAt is when the victim fail-stops, in seconds.
	warmFaultAt = 0.3
	// faultSalt decorrelates the drill's fault schedule from the
	// victim's own machine stream.
	faultSalt = 0xfa175a17
	// victim is the machine the drill fail-stops. Id 1 keeps machine 0
	// as an always-healthy publisher at every fleet size.
	victim = 1
)

// warmCell is one sweep point: a fleet size and a share-plane sync
// period (0 = plane off, the cold baseline).
type warmCell struct {
	machines int
	sync     int
}

// warmCells defines the sweep: cold vs warm at two staleness settings,
// across two fleet sizes.
func warmCells() []warmCell {
	return []warmCell{
		{machines: 2, sync: 0},
		{machines: 2, sync: 2},
		{machines: 2, sync: 6},
		{machines: 4, sync: 0},
		{machines: 4, sync: 2},
		{machines: 4, sync: 6},
	}
}

// CellReport is one sweep point's outcome.
type CellReport struct {
	Mode     string `json:"mode"` // "cold" or "warm"
	Machines int    `json:"machines"`
	// SyncPeriod is the plane's publish/aggregate cadence in slices;
	// absent for cold cells.
	SyncPeriod int `json:"syncPeriod,omitempty"`
	// SuccessorID is the provisioned replacement's machine id.
	SuccessorID int `json:"successorId"`
	// WarmStarted reports whether the successor imported fleet factors.
	WarmStarted bool `json:"warmStarted"`
	// SuccessorSamplingQuanta is the headline: decision quanta the
	// successor spent in its sampling phase.
	SuccessorSamplingQuanta int `json:"successorSamplingQuanta"`
	// SurvivorMeanSampling averages the initial machines' (minus the
	// victim's) sampling quanta — the cold-start cost every machine
	// pays once at boot, for scale.
	SurvivorMeanSampling float64 `json:"survivorMeanSampling"`
	QoSMetFrac           float64 `json:"qosMetFrac"`
	Joins                int     `json:"joins"`
	Evictions            int     `json:"evictions"`
	SharePublishes       int     `json:"sharePublishes,omitempty"`
	ShareAggregates      int     `json:"shareAggregates,omitempty"`
	ShareWarmStarts      int     `json:"shareWarmStarts,omitempty"`
	ShareVersion         int     `json:"shareVersion,omitempty"`
}

// WarmstartReport is the model-sharing sweep (BENCH_warmstart.json,
// DESIGN.md §14). Each cell runs a machine-loss drill — one machine
// fail-stops most of its cores, the health pipeline evicts it, and the
// control plane provisions a successor — once cold (the successor
// initialises its SGD model from scratch and pays the full sampling
// phase) and once per staleness setting warm (the successor imports the
// fleet-aggregated factors and fine-tunes). The plane folds
// publications in ascending machine-id order inside the fleet's serial
// section, so the report does not depend on GOMAXPROCS.
type WarmstartReport struct {
	Service string  `json:"service"`
	Jobs    int     `json:"jobs"`
	Slices  int     `json:"slices"`
	Load    float64 `json:"load"`
	Cap     float64 `json:"cap"`
	Seed    uint64  `json:"seed"`
	FaultAt float64 `json:"faultAt"`
	// FineTune / Confidence / Decay are the plane knobs shared by every
	// warm cell (modelplane defaults).
	FineTune   int          `json:"fineTune"`
	Confidence int          `json:"confidence"`
	Decay      float64      `json:"decay"`
	Cells      []CellReport `json:"cells"`
}

func warmstartReport(p params) (any, error) {
	if p.Slices < 10 {
		return nil, fmt.Errorf("the drill needs at least 10 slices to evict and replace, got -slices %d", p.Slices)
	}
	defaults := modelplane.Params{}.WithDefaults()
	rep := &WarmstartReport{
		Service: p.Service, Jobs: warmJobs, Slices: p.Slices,
		Load: p.Load, Cap: p.Cap, Seed: p.Seed, FaultAt: warmFaultAt,
		FineTune: defaults.FineTuneIters, Confidence: defaults.WarmConfidence,
		Decay: defaults.Decay,
	}
	for _, c := range warmCells() {
		cr, err := runWarmCell(c, p)
		if err != nil {
			return nil, fmt.Errorf("machines=%d sync=%d: %w", c.machines, c.sync, err)
		}
		rep.Cells = append(rep.Cells, cr)
	}
	return rep, nil
}

// runWarmCell runs one machine-loss drill and reads the successor's
// sampling cost off its runtime.
func runWarmCell(c warmCell, p params) (CellReport, error) {
	lc, err := workload.ByName(p.Service)
	if err != nil {
		return CellReport{}, err
	}
	_, pool := workload.SplitTrainTest(1, 16)

	rts := make(map[int]*core.Runtime)
	node := func(id int, seed uint64) fleet.NodeSpec {
		m := sim.New(sim.Spec{
			Seed: seed, LC: lc,
			Batch:          workload.Mix(seed, pool, warmJobs),
			Reconfigurable: true,
		})
		rt := core.New(m, core.Params{
			Seed:         seed,
			ShareFactors: c.sync > 0,
		})
		rts[id] = rt
		return fleet.NodeSpec{Machine: m, Scheduler: rt}
	}
	seeds := fleet.Seeds(p.Seed, c.machines)
	nodes := make([]fleet.NodeSpec, c.machines)
	for i, s := range seeds {
		nodes[i] = node(i, s)
	}
	nodes[victim].Injector = fault.MustSchedule(seeds[victim]^faultSalt, fault.Event{
		Kind: fault.CoreFailStop, Start: warmFaultAt, End: math.Inf(1),
		Cores: 6, BatchCores: 2,
	})

	cfg := ctrlplane.Config{
		Fleet: fleet.Config{Router: fleet.Uniform{}, Arbiter: fleet.Proportional{}},
		// An aggressive health pipeline keeps the drill short: the
		// victim is evicted within a few slices of the fault, leaving
		// the successor most of the run to measure.
		Health: ctrlplane.HealthConfig{
			SuspectAfter: 1, QuarantineAfter: 1, DrainAfter: 2, DrainSlices: 1,
		},
		Scale: ctrlplane.ScaleConfig{
			ReplaceEvicted: true,
			Seed:           p.Seed ^ 0x0b5e55ed,
			Provision: func(id int, seed uint64) (fleet.NodeSpec, error) {
				return node(id, seed), nil
			},
		},
	}
	var plane *modelplane.Plane
	if c.sync > 0 {
		plane = modelplane.New(modelplane.Params{SyncPeriod: c.sync}, nil)
		cfg.Fleet.Share = plane
		cfg.WarmStart = plane
	}

	mgr, err := ctrlplane.New(cfg, nodes...)
	if err != nil {
		return CellReport{}, err
	}
	defer mgr.Close()
	res, err := mgr.Run(p.Slices, harness.ConstantLoad(p.Load), harness.ConstantBudget(p.Cap))
	if err != nil {
		return CellReport{}, err
	}

	successor := c.machines // first provisioned slot
	rt, ok := rts[successor]
	if !ok {
		return CellReport{}, fmt.Errorf("no successor was provisioned (slot %d)", successor)
	}
	ctl := summarizeControl(res)
	cr := CellReport{
		Mode:                    "cold",
		Machines:                c.machines,
		SyncPeriod:              c.sync,
		SuccessorID:             successor,
		WarmStarted:             rt.WarmStarted(),
		SuccessorSamplingQuanta: rt.SamplingQuanta(),
		QoSMetFrac:              round4(res.Fleet.QoSMetFraction()),
		Joins:                   ctl.Joins,
		Evictions:               ctl.Evictions,
	}
	if c.sync > 0 {
		cr.Mode = "warm"
	}
	survivors, total := 0, 0
	for id := 0; id < c.machines; id++ {
		if id == victim {
			continue
		}
		survivors++
		total += rts[id].SamplingQuanta()
	}
	cr.SurvivorMeanSampling = round4(float64(total) / float64(survivors))
	if plane != nil {
		cr.SharePublishes, cr.ShareAggregates, cr.ShareWarmStarts = plane.Totals()
		for _, ks := range plane.Stats() {
			if ks.Version > cr.ShareVersion {
				cr.ShareVersion = ks.Version
			}
		}
	}
	return cr, nil
}

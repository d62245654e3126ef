// Command warmstart measures what the fleet model-sharing plane
// (internal/modelplane, DESIGN.md §14) buys a replacement machine: the
// sweep runs a machine-loss drill — one machine fail-stops most of its
// cores, the health pipeline evicts it, and the control plane
// provisions a successor — once cold (no sharing: the successor
// random/SVD-initialises its SGD model and pays the full sampling
// phase) and once per staleness setting warm (the successor imports
// the fleet-aggregated factors and fine-tunes). Each cell reports the
// successor's sampling-phase quanta — decision slices where some
// service still lacked a measured tail latency or full scan
// confidence — which is the cost warm-starting exists to cut.
//
// Cells sweep the cold/warm mode, the plane's sync period (the
// staleness knob: aggregates lag local truth by up to one period) and
// the fleet size (more publishers average into the aggregate).
//
// Every run is deterministic: the plane folds publications in
// ascending machine-id order inside the fleet's serial section, SGD
// sweeps in serial order, and machine steps merge in index order — a
// fixed -seed produces a byte-identical report at any GOMAXPROCS.
//
// Usage:
//
//	warmstart [-service xapian] [-slices 22] [-load 0.4] [-cap 0.8]
//	          [-seed 7] [-o report.json]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"cuttlesys/internal/core"
	"cuttlesys/internal/ctrlplane"
	"cuttlesys/internal/fault"
	"cuttlesys/internal/fleet"
	"cuttlesys/internal/harness"
	"cuttlesys/internal/modelplane"
	"cuttlesys/internal/obs"
	"cuttlesys/internal/sim"
	"cuttlesys/internal/workload"
)

// faultSalt decorrelates the drill's fault schedule from the victim's
// own machine stream.
const faultSalt = 0xfa175a17

// victim is the machine the drill fail-stops. Id 1 keeps machine 0 as
// an always-healthy publisher at every fleet size.
const victim = 1

// geometry is the sweep's shared run shape.
type geometry struct {
	service string
	jobs    int
	slices  int
	load    float64
	cap     float64
	seed    uint64
	faultAt float64
}

// cell is one sweep point: a fleet size and a share-plane sync period
// (0 = plane off, the cold baseline).
type cell struct {
	machines int
	sync     int
}

// cells defines the sweep: cold vs warm at two staleness settings,
// across two fleet sizes.
func cells() []cell {
	return []cell{
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

// Report is the full sweep.
type Report struct {
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

func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

func main() {
	service := flag.String("service", "xapian", "latency-critical service (TailBench name)")
	slices := flag.Int("slices", 22, "timeslices per cell")
	load := flag.Float64("load", 0.4, "offered load fraction of aggregate capacity")
	capFrac := flag.Float64("cap", 0.8, "cluster power cap fraction of aggregate reference power")
	seed := flag.Uint64("seed", 7, "fleet seed (machine and provisioning seeds are derived)")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	rep, err := suite(geometry{
		service: *service, jobs: 8, slices: *slices,
		load: *load, cap: *capFrac, seed: *seed, faultAt: 0.3,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "warmstart: %v\n", err)
		os.Exit(1)
	}
	if err := obs.WriteReport(*out, rep); err != nil {
		fmt.Fprintf(os.Stderr, "warmstart: %v\n", err)
		os.Exit(1)
	}
}

func suite(g geometry) (*Report, error) {
	if g.slices < 10 {
		return nil, fmt.Errorf("the drill needs at least 10 slices to evict and replace, got -slices %d", g.slices)
	}
	if g.load <= 0 || g.load > 1 {
		return nil, fmt.Errorf("-load %v out of (0, 1]", g.load)
	}
	if g.cap <= 0 || g.cap > 1 {
		return nil, fmt.Errorf("-cap %v out of (0, 1]", g.cap)
	}
	defaults := modelplane.Params{}.WithDefaults()
	rep := &Report{
		Service: g.service, Jobs: g.jobs, Slices: g.slices,
		Load: g.load, Cap: g.cap, Seed: g.seed, FaultAt: g.faultAt,
		FineTune: defaults.FineTuneIters, Confidence: defaults.WarmConfidence,
		Decay: defaults.Decay,
	}
	for _, c := range cells() {
		cr, err := runCell(c, g)
		if err != nil {
			return nil, fmt.Errorf("machines=%d sync=%d: %w", c.machines, c.sync, err)
		}
		rep.Cells = append(rep.Cells, cr)
	}
	return rep, nil
}

// runCell runs one machine-loss drill and reads the successor's
// sampling cost off its runtime.
func runCell(c cell, g geometry) (CellReport, error) {
	lc, err := workload.ByName(g.service)
	if err != nil {
		return CellReport{}, err
	}
	_, pool := workload.SplitTrainTest(1, 16)

	rts := make(map[int]*core.Runtime)
	node := func(id int, seed uint64) fleet.NodeSpec {
		m := sim.New(sim.Spec{
			Seed: seed, LC: lc,
			Batch:          workload.Mix(seed, pool, g.jobs),
			Reconfigurable: true,
		})
		rt := core.New(m, core.Params{
			Seed:         seed,
			ShareFactors: c.sync > 0,
		})
		rts[id] = rt
		return fleet.NodeSpec{Machine: m, Scheduler: rt}
	}
	seeds := fleet.Seeds(g.seed, c.machines)
	specs := make([]fleet.NodeSpec, c.machines)
	for i, s := range seeds {
		specs[i] = node(i, s)
	}
	specs[victim].Injector = fault.MustSchedule(seeds[victim]^faultSalt, fault.Event{
		Kind: fault.CoreFailStop, Start: g.faultAt, End: math.Inf(1),
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
			Seed:           g.seed ^ 0x0b5e55ed,
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

	mgr, err := ctrlplane.New(cfg, specs...)
	if err != nil {
		return CellReport{}, err
	}
	defer mgr.Close()
	res, err := mgr.Run(g.slices, harness.ConstantLoad(g.load), harness.ConstantBudget(g.cap))
	if err != nil {
		return CellReport{}, err
	}

	successor := c.machines // first provisioned slot
	rt, ok := rts[successor]
	if !ok {
		return CellReport{}, fmt.Errorf("no successor was provisioned (slot %d)", successor)
	}
	cr := CellReport{
		Mode:                    "cold",
		Machines:                c.machines,
		SyncPeriod:              c.sync,
		SuccessorID:             successor,
		WarmStarted:             rt.WarmStarted(),
		SuccessorSamplingQuanta: rt.SamplingQuanta(),
		QoSMetFrac:              round4(res.Fleet.QoSMetFraction()),
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
	for _, ev := range res.Membership {
		if ev.Event == "join" {
			cr.Joins++
		} else {
			cr.Evictions++
		}
	}
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

package main

import (
	"fmt"

	"cuttlesys"
	"cuttlesys/specs"
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
// DESIGN.md §14). Each cell runs the warm-drill library spec — one machine
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
	// warm cell (the spec's share clause).
	FineTune   int          `json:"fineTune"`
	Confidence int          `json:"confidence"`
	Decay      float64      `json:"decay"`
	Cells      []CellReport `json:"cells"`
}

func warmstartReport(p params) (any, error) {
	if p.Slices < 10 {
		return nil, fmt.Errorf("the drill needs at least 10 slices to evict and replace, got -slices %d", p.Slices)
	}
	sp, err := librarySpec("warm-drill")
	if err != nil {
		return nil, err
	}
	if len(sp.Faults) != 1 || sp.Share == nil {
		return nil, fmt.Errorf("%s: the drill needs one fault clause and a share clause", sp.Name)
	}
	rep := &WarmstartReport{
		Service: p.Service, Jobs: sp.Mix.Jobs, Slices: p.Slices,
		Load: p.Load, Cap: p.Cap, Seed: p.Seed, FaultAt: sp.Faults[0].Events[0].Start,
		FineTune: sp.Share.FineTune, Confidence: sp.Share.Confidence,
		Decay: sp.Share.Decay.Value(),
	}
	for _, c := range warmCells() {
		cr, err := runWarmCell(sp, c, p)
		if err != nil {
			return nil, fmt.Errorf("machines=%d sync=%d: %w", c.machines, c.sync, err)
		}
		rep.Cells = append(rep.Cells, cr)
	}
	return rep, nil
}

// runWarmCell runs the drill spec at one sweep point and reads the
// successor's sampling cost off its runtime. The spec's fault clause
// names the victim; machine 0 stays an always-healthy publisher at
// every fleet size.
func runWarmCell(sp *cuttlesys.Scenario, c warmCell, p params) (CellReport, error) {
	cell := *sp
	cell.Share = nil
	if c.sync > 0 {
		share := *sp.Share
		share.SyncPeriod = c.sync
		cell.Share = &share
	}
	q := p
	q.Machines = c.machines
	comp, err := compile(&cell, specs.FS, q)
	if err != nil {
		return CellReport{}, err
	}
	mgr, err := comp.BuildControlPlane(nil, nil)
	if err != nil {
		return CellReport{}, err
	}
	defer mgr.Close()
	res, err := mgr.Run(comp.Slices, comp.LoadPat, comp.BudgetPat)
	if err != nil {
		return CellReport{}, err
	}

	f := mgr.Fleet()
	rtOf := func(id int) *cuttlesys.Runtime { return f.Scheduler(id).(*cuttlesys.Runtime) }
	successor := c.machines // first provisioned slot
	if f.Slots() <= successor {
		return CellReport{}, fmt.Errorf("no successor was provisioned (slot %d)", successor)
	}
	rt := rtOf(successor)
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
	victim := sp.Faults[0].Machine % c.machines
	survivors, total := 0, 0
	for id := 0; id < c.machines; id++ {
		if id == victim {
			continue
		}
		survivors++
		total += rtOf(id).SamplingQuanta()
	}
	cr.SurvivorMeanSampling = round4(float64(total) / float64(survivors))
	if plane, ok := mgr.WarmStart().(*cuttlesys.ModelPlane); ok {
		cr.SharePublishes, cr.ShareAggregates, cr.ShareWarmStarts = plane.Totals()
		for _, ks := range plane.Stats() {
			if ks.Version > cr.ShareVersion {
				cr.ShareVersion = ks.Version
			}
		}
	}
	return cr, nil
}

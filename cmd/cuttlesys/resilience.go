package main

import (
	"fmt"

	"cuttlesys"
	"cuttlesys/experiments"
)

// faultScenario is one named fault battery of the resilience report.
// Windows are in seconds; the reference 30-slice run spans 3 s, with
// faults active over [0.5, 1.5) so every run sees a clean lead-in and
// a recovery tail.
type faultScenario struct {
	name   string
	events []cuttlesys.FaultEvent
}

func faultScenarios() []faultScenario {
	return []faultScenario{
		{name: "fault-free"},
		{name: "core-failstop", events: []cuttlesys.FaultEvent{
			{Kind: cuttlesys.CoreFailStop, Start: 0.5, End: 1.5, Cores: 8, BatchCores: 2},
		}},
		{name: "core-failslow", events: []cuttlesys.FaultEvent{
			{Kind: cuttlesys.CoreFailSlow, Start: 0.5, End: 1.5, Factor: 0.6},
		}},
		{name: "profile-corrupt", events: []cuttlesys.FaultEvent{
			{Kind: cuttlesys.ProfileCorrupt, Start: 0.5, End: 1.5, Prob: 0.8},
		}},
		{name: "garbage-telemetry", events: []cuttlesys.FaultEvent{
			{Kind: cuttlesys.TelemetryGarbage, Start: 0.5, End: 1.5, Prob: 0.6},
		}},
		{name: "flash-crowd", events: []cuttlesys.FaultEvent{
			{Kind: cuttlesys.FlashCrowd, Start: 0.5, End: 1.5, Factor: 1.6},
		}},
		{name: "budget-drop", events: []cuttlesys.FaultEvent{
			{Kind: cuttlesys.BudgetDrop, Start: 0.5, End: 1.5, Factor: 0.55},
		}},
	}
}

// resiliencePolicies are the hardened runtime, its trusting
// DisableResilience control and the core-gating baselines.
var resiliencePolicies = []string{
	experiments.PolicyCuttleSys, experiments.PolicyCuttleSysUnhardened,
	experiments.PolicyCoreGating, experiments.PolicyCoreGatingWP,
}

// ResiliencePolicy is one (scenario, policy) cell of the resilience
// report. Field order is the JSON order.
type ResiliencePolicy struct {
	Policy                    string  `json:"policy"`
	QoSViolations             int     `json:"qosViolations"`
	FaultAttributedViolations int     `json:"faultAttributedViolations"`
	RecoverySlices            int     `json:"recoverySlices"`
	DegradedOccupancy         float64 `json:"degradedOccupancy"`
	ProfileRetries            int     `json:"profileRetries"`
	WorstP99Ratio             float64 `json:"worstP99Ratio"`
	TotalInstrB               float64 `json:"totalInstrB"`
	MeanGmeanBIPS             float64 `json:"meanGmeanBIPS"`
}

// ResilienceScenario groups the policies under one fault battery.
type ResilienceScenario struct {
	Scenario string             `json:"scenario"`
	Policies []ResiliencePolicy `json:"policies"`
}

// ResilienceReport is the resilience sweep (BENCH_resilience.json):
// every fault battery against every policy, each cell on a fresh
// machine with a fresh fault schedule, so cells are independent.
type ResilienceReport struct {
	Service string               `json:"service"`
	MixSeed uint64               `json:"mixSeed"`
	Slices  int                  `json:"slices"`
	Load    float64              `json:"load"`
	Cap     float64              `json:"cap"`
	Seed    uint64               `json:"seed"`
	Results []ResilienceScenario `json:"results"`
}

func resilienceReport(p params) (any, error) {
	rep := &ResilienceReport{
		Service: p.Service, MixSeed: p.Mix, Slices: p.Slices,
		Load: p.Load, Cap: p.Cap, Seed: p.Seed,
	}
	for _, sc := range faultScenarios() {
		sr := ResilienceScenario{Scenario: sc.name}
		for _, policy := range resiliencePolicies {
			pr, err := resilienceCell(policy, sc, p)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", sc.name, policy, err)
			}
			sr.Policies = append(sr.Policies, pr)
		}
		rep.Results = append(rep.Results, sr)
	}
	return rep, nil
}

func resilienceCell(policy string, sc faultScenario, p params) (ResiliencePolicy, error) {
	m, sched, err := experiments.NewPolicyMachine(policy, p.Service, p.Mix, p.Seed)
	if err != nil {
		return ResiliencePolicy{}, err
	}
	inj, err := cuttlesys.NewFaultSchedule(p.Seed, sc.events...)
	if err != nil {
		return ResiliencePolicy{}, err
	}
	res, err := cuttlesys.RunFaulted(m, sched, p.Slices,
		cuttlesys.ConstantLoad(p.Load), cuttlesys.ConstantBudget(p.Cap), inj)
	if err != nil {
		return ResiliencePolicy{}, err
	}
	retries := 0
	for _, s := range res.Slices {
		retries += s.ProfileRetries
	}
	return ResiliencePolicy{
		Policy:                    policy,
		QoSViolations:             res.QoSViolations(),
		FaultAttributedViolations: res.FaultAttributedViolations(),
		RecoverySlices:            res.RecoverySlices(),
		DegradedOccupancy:         round4(res.DegradedOccupancy()),
		ProfileRetries:            retries,
		WorstP99Ratio:             round4(res.WorstP99Ratio()),
		TotalInstrB:               round4(res.TotalInstrB()),
		MeanGmeanBIPS:             round4(res.MeanGmeanBIPS()),
	}, nil
}

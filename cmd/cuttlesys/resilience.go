package main

import (
	"fmt"

	"cuttlesys"
	"cuttlesys/experiments"
)

// resilienceBatteries name the report's fault batteries in report
// order; battery b is the library spec resilience-b. Each is a
// one-machine spec whose faults, if any, are active over [0.5, 1.5) of
// the reference 3 s run, so every run sees a clean lead-in and a
// recovery tail.
var resilienceBatteries = []string{
	"fault-free", "core-failstop", "core-failslow", "profile-corrupt",
	"garbage-telemetry", "flash-crowd", "budget-drop",
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
	runs, err := resilienceRuns(p)
	if err != nil {
		return nil, err
	}
	return resilienceSummary(p, runs), nil
}

// resilienceRuns runs every battery's spec under every policy, in
// report order: battery-major, runs[b*len(resiliencePolicies)+k] is
// battery b under policy k.
func resilienceRuns(p params) ([]*cuttlesys.Result, error) {
	var runs []*cuttlesys.Result
	for _, battery := range resilienceBatteries {
		for _, policy := range resiliencePolicies {
			p.Policy = policy
			res, err := oneMachine("resilience-"+battery, p)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", battery, policy, err)
			}
			runs = append(runs, res)
		}
	}
	return runs, nil
}

// resilienceSummary is the report of resilienceRuns' runs.
func resilienceSummary(p params, runs []*cuttlesys.Result) *ResilienceReport {
	rep := &ResilienceReport{
		Service: p.Service, MixSeed: p.Mix, Slices: p.Slices,
		Load: p.Load, Cap: p.Cap, Seed: p.Seed,
	}
	for b, battery := range resilienceBatteries {
		sr := ResilienceScenario{Scenario: battery}
		for k, policy := range resiliencePolicies {
			sr.Policies = append(sr.Policies, resilienceCell(policy, runs[b*len(resiliencePolicies)+k]))
		}
		rep.Results = append(rep.Results, sr)
	}
	return rep
}

// resilienceCell summarises one run under policy.
func resilienceCell(policy string, res *cuttlesys.Result) ResiliencePolicy {
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
	}
}

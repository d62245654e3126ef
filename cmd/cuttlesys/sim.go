package main

import (
	"flag"
	"fmt"
	"io"

	"cuttlesys/experiments"
)

// simFlags are the knobs of `cuttlesys sim [flags]`, the free-form
// driver: any policy on any service/mix/load/budget combination,
// printing the per-slice trace — the tool to poke at the system outside
// the canned figure reproductions.
var simFlags = []string{"policy", "service", "mix", "slices", "load", "cap", "seed"}

func runSim(args []string, stdout io.Writer) error {
	p := params{Policy: "cuttlesys", Service: "xapian", Mix: 3, Slices: 20, Load: 0.8, Cap: 0.7, Seed: 1}
	fs := flag.NewFlagSet("cuttlesys sim", flag.ContinueOnError)
	p.bind(fs, simFlags...)
	if err := parseNoArgs(fs, args); err != nil {
		return err
	}
	res, err := experiments.RunPolicy(p.Policy, p.Service, p.Mix, p.Seed, p.Slices, p.Load, p.Cap, nil)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "%-5s %10s %6s %5s %9s %8s %8s %9s %6s\n",
		"t", "p99(ms)", "QoS", "viol", "gmBIPS", "P(W)", "budget", "lcCfg", "lcCrs")
	for _, s := range res.Slices {
		viol := ""
		if s.Violated {
			viol = "V"
		}
		fmt.Fprintf(stdout, "%-5.1f %10.2f %6.0f %5s %9.2f %8.1f %8.1f %9s %6d\n",
			s.T, s.P99Ms, s.QoSMs, viol, s.GmeanBIPS, s.AvgPowerW, s.BudgetW, s.LCCoreCfg, s.LCCores)
	}
	fmt.Fprintln(stdout, res)
	return nil
}

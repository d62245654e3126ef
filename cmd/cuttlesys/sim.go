package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"

	"cuttlesys"
	"cuttlesys/specs"
)

// simFlags are the knobs of `cuttlesys sim [flags]`, the free-form
// driver: any policy on any service/mix/load/budget combination,
// printing the per-slice trace — the tool to poke at the system outside
// the canned figure reproductions. It runs the sim library spec, and a
// flag overrides the spec only when it is given.
var simFlags = []string{"policy", "service", "mix", "slices", "load", "cap", "seed"}

func runSim(args []string, stdout io.Writer) error {
	p := params{Seed: 1}
	fs := flag.NewFlagSet("cuttlesys sim", flag.ContinueOnError)
	p.bind(fs, simFlags...)
	if err := parseNoArgs(fs, args); err != nil {
		return err
	}
	res, err := oneMachine("sim", p)
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

// oneMachine runs a one-machine library spec with p's geometry, -policy
// as its scheduler and -mix as its mix seed, each when set, and returns
// the machine's record.
func oneMachine(name string, p params) (*cuttlesys.Result, error) {
	sp, err := librarySpec(name)
	if err != nil {
		return nil, err
	}
	sp.Policy.Scheduler, sp.Mix.Seed = cmp.Or(p.Policy, sp.Policy.Scheduler), cmp.Or(p.Mix, sp.Mix.Seed)
	comp, err := compile(sp, specs.FS, p)
	if err != nil {
		return nil, err
	}
	res, _, err := comp.RunMachine(nil)
	return res, err
}

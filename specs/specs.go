// Package specs embeds the repo's scenario spec library: the
// one-machine run of `cuttlesys sim` (sim) and the resilience report's
// seven fault batteries (resilience-*), the cluster scenarios of the
// fleet report, the control-plane drills of the ops
// report, the traced chaos run of the obs report (obs-chaos), the
// machine-loss drill the warmstart report sweeps (warm-drill), plus the
// extended scenarios behind BENCH_scenario.json and a recorded traffic
// trace for replay. Specs are plain text in the
// internal/scenario grammar (DESIGN.md §13); `cuttlesys validate`,
// `describe` and `run` validate, describe and run them, and CI
// validates every file here on each push.
package specs

import "embed"

// FS holds every embedded spec and trace, rooted at this directory, so
// trace clauses resolve paths like traces/prod-day.csv against it.
//
//go:embed *.spec traces/*.csv
var FS embed.FS

// Names lists the embedded scenario names — the .spec file base names
// in lexical (deterministic) order.
func Names() []string {
	entries, err := FS.ReadDir(".")
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		const ext = ".spec"
		if n := e.Name(); len(n) > len(ext) && n[len(n)-len(ext):] == ext {
			names = append(names, n[:len(n)-len(ext)])
		}
	}
	return names
}

// Source returns the spec text for one embedded scenario name.
func Source(name string) ([]byte, error) {
	return FS.ReadFile(name + ".spec")
}

package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"cuttlesys"
	"cuttlesys/specs"
)

// The spec commands are the front door to the declarative workload
// specs of DESIGN.md §13. A spec file plus a seed fully determines a
// fleet run: the engine compiles the spec's traffic, fault and control
// clauses, then drives the bare fleet or the managed control plane the
// spec declares. All stochastic draws happen at compile time from
// streams keyed by the seed XOR the spec hash.

// compile lowers a spec against p's geometry; zero fields defer to the
// spec's own declarations. On describe, run and the scenario report the
// geometry flags default to zero, and checkGeometry rejects an explicit
// zero, so a flag overrides the spec exactly when it is given.
func compile(sp *cuttlesys.Scenario, fsys fs.FS, p params) (*cuttlesys.CompiledScenario, error) {
	return cuttlesys.CompileScenario(sp, options(p, fsys))
}

// options carries p's geometry and seed into scenario options.
func options(p params, fsys fs.FS) cuttlesys.ScenarioOptions {
	return cuttlesys.ScenarioOptions{
		Machines: p.Machines, Slices: p.Slices, Service: p.Service,
		Load: p.Load, Cap: p.Cap, Seed: p.Seed, FS: fsys,
	}
}

// compileLibrary compiles one embedded library spec against p's
// geometry.
func compileLibrary(name string, p params) (*cuttlesys.CompiledScenario, error) {
	sp, err := librarySpec(name)
	if err != nil {
		return nil, err
	}
	return compile(sp, specs.FS, p)
}

// librarySpec parses one embedded library spec.
func librarySpec(name string) (*cuttlesys.Scenario, error) {
	src, err := specs.Source(name)
	if err != nil {
		return nil, err
	}
	sp, err := cuttlesys.ParseScenario(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return sp, nil
}

// loadSpec resolves one spec argument: a readable path on disk wins
// (trace files then resolve relative to the spec's directory), else
// the argument names an embedded library spec.
func loadSpec(arg string) (*cuttlesys.Scenario, fs.FS, error) {
	if data, err := os.ReadFile(arg); err == nil {
		sp, perr := cuttlesys.ParseScenario(data)
		if perr != nil {
			return nil, nil, fmt.Errorf("%s: %w", arg, perr)
		}
		return sp, os.DirFS(filepath.Dir(arg)), nil
	}
	sp, err := librarySpec(strings.TrimSuffix(filepath.Base(arg), ".spec"))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: not a readable file and not a library spec: %w", arg, err)
	}
	return sp, specs.FS, nil
}

// oneSpec parses the flags of describe and run, which take exactly one
// spec argument.
func oneSpec(cmd string, args []string, extra ...string) (string, params, error) {
	p := params{Seed: 1}
	fs := flag.NewFlagSet("cuttlesys "+cmd, flag.ContinueOnError)
	p.bind(fs, append(extra, geometryFlags...)...)
	pos, err := parse(fs, args)
	if err != nil {
		return "", p, err
	}
	if len(pos) != 1 {
		return "", p, usageError("%s takes exactly one spec, got %d", cmd, len(pos))
	}
	return pos[0], p, nil
}

// runList is `cuttlesys list`: the embedded library roster, one line
// per spec in the library's lexical (stable) order — the spec name,
// its traffic clients, how many fault clauses it carries, its control
// clauses (or "bare"), and its share clause when model sharing is on.
func runList(args []string, stdout io.Writer) error {
	if err := parseNoArgs(flag.NewFlagSet("cuttlesys list", flag.ContinueOnError), args); err != nil {
		return err
	}
	for _, name := range specs.Names() {
		sp, err := librarySpec(name)
		if err != nil {
			return err
		}
		clients := make([]string, len(sp.Clients))
		for i := range sp.Clients {
			clients[i] = sp.Clients[i].Name
		}
		control := "bare"
		if sp.Control != nil {
			var parts []string
			if sp.Control.ReplaceEvicted {
				parts = append(parts, "replace-evicted")
			}
			if sp.Control.HasHealth {
				parts = append(parts, "health")
			}
			if sp.Control.HasScale {
				parts = append(parts, "scale")
			}
			if len(parts) == 0 {
				parts = append(parts, "managed")
			}
			control = strings.Join(parts, "+")
		}
		line := fmt.Sprintf("%-28s clients=%s faults=%d control=%s",
			name, strings.Join(clients, ","), len(sp.Faults), control)
		if sp.Share != nil {
			line += fmt.Sprintf(" share=syncperiod:%d", sp.Share.SyncPeriod)
		}
		fmt.Fprintln(stdout, strings.TrimRight(line, " "))
	}
	return nil
}

// runValidate is `cuttlesys validate [spec ...]`: parse, round-trip and
// compile every given spec (the whole embedded library when none is
// given), failing on the first broken one. Compiling without overrides
// proves each spec is self-contained: geometry, arrival processes,
// fault targets and trace references all resolve without flags.
func runValidate(args []string, stdout io.Writer) error {
	args, err := parse(flag.NewFlagSet("cuttlesys validate", flag.ContinueOnError), args)
	if err != nil {
		return err
	}
	if len(args) == 0 {
		args = specs.Names()
	}
	for _, arg := range args {
		sp, fsys, err := loadSpec(arg)
		if err != nil {
			return err
		}
		canon := cuttlesys.FormatScenario(sp)
		again, err := cuttlesys.ParseScenario(canon)
		if err != nil {
			return fmt.Errorf("%s: canonical form does not re-parse: %w", sp.Name, err)
		}
		if got := cuttlesys.FormatScenario(again); !bytes.Equal(got, canon) {
			return fmt.Errorf("%s: canonical form is not a fixed point", sp.Name)
		}
		if _, err := compile(sp, fsys, params{Seed: 1}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "ok %s (%016x)\n", sp.Name, cuttlesys.ScenarioHash(sp))
	}
	fmt.Fprintf(stdout, "validated %d spec(s)\n", len(args))
	return nil
}

// runDescribe is `cuttlesys describe <spec> [flags]`: the canonical
// rendering followed by the compiled summary — what one seed turns the
// spec into.
func runDescribe(args []string, stdout io.Writer) error {
	arg, p, err := oneSpec("describe", args)
	if err != nil {
		return err
	}
	sp, fsys, err := loadSpec(arg)
	if err != nil {
		return err
	}
	comp, err := compile(sp, fsys, p)
	if err != nil {
		return err
	}
	stdout.Write(cuttlesys.FormatScenario(comp.Spec))
	fmt.Fprintf(stdout, "\n# hash %016x seed %d\n", comp.Hash, comp.Seed)
	driver := "bare fleet"
	if comp.Managed {
		driver = "managed control plane"
	}
	fmt.Fprintf(stdout, "# %s: %d machines x %d slices, service %s, load %v, cap %v\n",
		driver, comp.Machines, comp.Slices, comp.Service, comp.Load, comp.Cap)
	for i := range comp.Clients {
		cl := &comp.Clients[i]
		fmt.Fprintf(stdout, "# client %s (%s): mean offered fraction %v\n",
			cl.Name, cl.SLO, round4(cl.MeanFrac))
	}
	return nil
}

// runSpec is `cuttlesys run <spec> [flags]`.
func runSpec(args []string, stdout io.Writer) error {
	arg, p, err := oneSpec("run", args, "o")
	if err != nil {
		return err
	}
	sp, fsys, err := loadSpec(arg)
	if err != nil {
		return err
	}
	sr, err := scenarioRun(sp, fsys, p)
	if err != nil {
		return err
	}
	return writeReport(p.Out, stdout, sr)
}

// ClientReport is one traffic clause's compiled summary.
type ClientReport struct {
	Client   string  `json:"client"`
	SLO      string  `json:"slo"`
	MeanFrac float64 `json:"meanFrac"`
}

// ScenarioReport is one spec's run outcome.
type ScenarioReport struct {
	Scenario string `json:"scenario"`
	Hash     string `json:"hash"`
	Managed  bool   `json:"managed"`
	Machines int    `json:"machines"`
	Slices   int    `json:"slices"`
	FleetQuality
	Clients []ClientReport `json:"clients"`
	Control *ControlReport `json:"control,omitempty"`
}

// ScenarioSuite is the scenario benchmark report (BENCH_scenario.json).
type ScenarioSuite struct {
	Seed      uint64           `json:"seed"`
	Scenarios []ScenarioReport `json:"scenarios"`
}

// suiteScenarios names the library specs the scenario report runs, in
// report order: the ones not already covered byte for byte by the fleet
// and ops reports.
func suiteScenarios() []string {
	return []string{"flash-crowd", "load-shift-storm", "correlated-brownout", "trace-replay"}
}

func scenarioSuite(p params) (any, error) {
	rep := &ScenarioSuite{Seed: p.Seed}
	for _, name := range suiteScenarios() {
		sp, err := librarySpec(name)
		if err != nil {
			return nil, err
		}
		sr, err := scenarioRun(sp, specs.FS, p)
		if err != nil {
			return nil, err
		}
		rep.Scenarios = append(rep.Scenarios, sr)
	}
	return rep, nil
}

// scenarioRun compiles and drives one spec, summarising the run.
func scenarioRun(sp *cuttlesys.Scenario, fsys fs.FS, p params) (ScenarioReport, error) {
	comp, err := compile(sp, fsys, p)
	if err != nil {
		return ScenarioReport{}, err
	}
	res, err := comp.Run()
	if err != nil {
		return ScenarioReport{}, fmt.Errorf("%s: %w", comp.Spec.Name, err)
	}
	sr := ScenarioReport{
		Scenario:     comp.Spec.Name,
		Hash:         fmt.Sprintf("%016x", comp.Hash),
		Managed:      comp.Managed,
		Machines:     comp.Machines,
		Slices:       comp.Slices,
		FleetQuality: fleetQuality(res.Fleet),
	}
	for i := range comp.Clients {
		cl := &comp.Clients[i]
		sr.Clients = append(sr.Clients, ClientReport{
			Client: cl.Name, SLO: cl.SLO, MeanFrac: round4(cl.MeanFrac),
		})
	}
	if res.Control != nil {
		cr := summarizeControl(res.Control)
		sr.Control = &cr
	}
	return sr, nil
}

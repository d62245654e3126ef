// Command cuttlesys is the repository's one entry point: it regenerates
// the seeded reports, reproduces the paper's tables and figures, runs
// and inspects the declarative scenario specs, drives one machine
// free-form and summarises traces. The first argument picks the
// subcommand; each subcommand parses its own flags (-h lists them).
//
// Usage:
//
//	cuttlesys report <name> [-o report.json] [flags]
//	    name: resilience | fleet | obs | ops | scenario | warmstart;
//	    with no flags the output is the checked-in BENCH_<name>.json
//	cuttlesys paper <row> [flags]
//	    row: fig1 | tableii | trainsweep | fig5a | fig5b | fig5c | fig7 |
//	         fig8a | fig8b | fig8c | flicker | fig9 | fig10a | fig10b |
//	         ablation | proportionality
//	cuttlesys list
//	cuttlesys validate [spec ...]
//	cuttlesys describe <spec> [flags]
//	cuttlesys run <spec> [-o report.json] [flags]
//	cuttlesys sim [-policy cuttlesys] [-service xapian] [-slices 20] ...
//	cuttlesys trace [-chrome | -summary] [-top 10] [-o out] trace.jsonl
//	cuttlesys lint [-C dir] [-checks determinism,...] [-show-allowed] [-json] [packages]
//
// Every report and every spec run is deterministic: a fixed -seed
// produces byte-identical output at any GOMAXPROCS.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"cuttlesys/internal/obs"
	"cuttlesys/internal/scenario"
)

// command is one subcommand: run receives the arguments after its name.
type command struct {
	name, summary string
	run           func(args []string, stdout io.Writer) error
}

var commands = []command{
	{"report", "regenerate a seeded BENCH_<name>.json report", runReport},
	{"paper", "reproduce one table or figure of the paper", runPaper},
	{"list", "print the embedded spec library roster", runList},
	{"validate", "parse, round-trip and compile specs (default: the whole library)", runValidate},
	{"describe", "print a spec's canonical form and compiled summary", runDescribe},
	{"run", "run one spec and emit its JSON report", runSpec},
	{"sim", "run any policy on one machine and print the per-slice trace", runSim},
	{"trace", "summarise or convert trace JSONL", runTrace},
	{"lint", "run the repository-invariant static analyzers", runLint},
}

// errUsage marks a malformed command line; main exits 2 on it.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "cuttlesys: %v\n", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run dispatches one command line; output that is not redirected with
// -o goes to stdout.
func run(args []string, stdout io.Writer) error {
	c, err := pick("subcommand", commands, func(c command) string { return c.name }, args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "usage: cuttlesys <subcommand> [arguments]; -h after a subcommand lists its flags")
		for _, c := range commands {
			fmt.Fprintf(os.Stderr, "  %-9s %s\n", c.name, c.summary)
		}
		if len(args) > 0 && (args[0] == "-h" || args[0] == "-help") {
			return flag.ErrHelp
		}
		return err
	}
	if err := c.run(args[1:], stdout); err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	return nil
}

func usageError(format string, a ...any) error {
	return fmt.Errorf("%w: %s", errUsage, fmt.Sprintf(format, a...))
}

// pick finds the row the first argument names.
func pick[T any](kind string, rows []T, name func(T) string, args []string) (T, error) {
	var all []string
	for _, r := range rows {
		if len(args) > 0 && name(r) == args[0] {
			return r, nil
		}
		all = append(all, name(r))
	}
	var zero T
	if len(args) == 0 {
		return zero, usageError("%s needs a name: one of %v", kind, all)
	}
	return zero, usageError("unknown %s %q: one of %v", kind, args[0], all)
}

// params carries every flag value a subcommand can take. A row binds
// the subset it uses, and its defaults are the row's reference values.
type params struct {
	Service  string
	Mix      uint64
	Machines int
	Slices   int
	Load     float64
	Cap      float64
	Seed     uint64
	Mixes    int
	Services string
	Loads    string
	Sim      float64
	Reps     int
	Points   bool
	Policy   string
	Out      string
	// Trace, Chrome and Prom are the obs report's artifact paths.
	Trace, Chrome, Prom string
}

// bind defines the named flags on fs, each defaulting to p's value.
func (p *params) bind(fs *flag.FlagSet, flags ...string) {
	for _, name := range flags {
		switch name {
		case "service":
			fs.StringVar(&p.Service, name, p.Service, "latency-critical service (TailBench name)")
		case "mix":
			fs.Uint64Var(&p.Mix, name, p.Mix, "batch-mix seed")
		case "machines":
			fs.IntVar(&p.Machines, name, p.Machines, "machines in the fleet")
		case "slices":
			fs.IntVar(&p.Slices, name, p.Slices, "timeslices per run")
		case "load":
			fs.Float64Var(&p.Load, name, p.Load, "offered load fraction")
		case "cap":
			fs.Float64Var(&p.Cap, name, p.Cap, "power cap fraction of reference power")
		case "seed":
			fs.Uint64Var(&p.Seed, name, p.Seed, "random seed")
		case "mixes":
			fs.IntVar(&p.Mixes, name, p.Mixes, "mixes per service (paper: 10)")
		case "services":
			fs.StringVar(&p.Services, name, p.Services, "comma-separated services (default all five)")
		case "loads":
			fs.StringVar(&p.Loads, name, p.Loads, "comma-separated load fractions")
		case "sim":
			fs.Float64Var(&p.Sim, name, p.Sim, "simulated seconds per configuration")
		case "reps":
			fs.IntVar(&p.Reps, name, p.Reps, "repetitions (best-of reported)")
		case "points":
			fs.BoolVar(&p.Points, name, p.Points, "dump every explored point as CSV")
		case "policy":
			var names []string
			for _, d := range scenario.Schedulers {
				names = append(names, d.Name)
			}
			fs.StringVar(&p.Policy, name, p.Policy, strings.Join(names, " | "))
		case "o":
			fs.StringVar(&p.Out, name, p.Out, "output file (default stdout)")
		case "trace":
			fs.StringVar(&p.Trace, name, p.Trace, "also write the trace JSONL to this file")
		case "chrome":
			fs.StringVar(&p.Chrome, name, p.Chrome, "also write Chrome trace_event JSON to this file")
		case "prom":
			fs.StringVar(&p.Prom, name, p.Prom, "also write a Prometheus metric snapshot to this file")
		default:
			panic("cuttlesys: no flag " + name)
		}
	}
}

// parse parses args against fs, allowing flags before, between and
// after the positional arguments, and checks the geometry flags.
func parse(fs *flag.FlagSet, args []string) ([]string, error) {
	fs.SetOutput(io.Discard)
	var pos []string
	for {
		if err := fs.Parse(args); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				fs.SetOutput(os.Stderr)
				fs.Usage()
				return nil, err
			}
			return nil, fmt.Errorf("%w: %v", errUsage, err)
		}
		if fs.NArg() == 0 {
			return pos, checkGeometry(fs)
		}
		pos = append(pos, fs.Arg(0))
		args = fs.Args()[1:]
	}
}

// parseNoArgs is parse for commands that take flags only.
func parseNoArgs(fs *flag.FlagSet, args []string) error {
	pos, err := parse(fs, args)
	if err == nil && len(pos) > 0 {
		err = usageError("unexpected arguments %q", pos)
	}
	return err
}

// checkGeometry rejects out-of-range geometry among the flags given on
// the command line, naming the flag: counts (paper's -reps and trace's
// -top among them) must be at least one, fractions must lie in (0, 1]
// (fig1 holds each -loads element to the same rule as it parses it)
// and -sim seconds must be finite and positive. Unset flags keep
// their row's reference defaults, or, on the spec commands, defer to
// the spec.
func checkGeometry(fs *flag.FlagSet) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		v := f.Value.(flag.Getter).Get()
		switch f.Name {
		case "machines", "slices", "mixes", "reps", "top":
			if n := v.(int); n < 1 && err == nil {
				err = fmt.Errorf("-%s %d must be at least 1", f.Name, n)
			}
		case "mix":
			if v.(uint64) == 0 && err == nil {
				err = fmt.Errorf("-mix 0 must be at least 1")
			}
		case "load", "cap":
			if x := v.(float64); !(x > 0 && x <= 1) && err == nil {
				err = fmt.Errorf("-%s %v out of (0, 1]", f.Name, x)
			}
		case "sim":
			if x := v.(float64); !(x > 0 && !math.IsInf(x, 1)) && err == nil {
				err = fmt.Errorf("-sim %v must be finite and positive", x)
			}
		}
	})
	return err
}

// round4 rounds report floats to four decimals so reports are
// byte-stable across platforms.
func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

// writeTo runs emit against the file at path, or against stdout when
// path is empty. Close carries the write-back error: a failed flush
// means the output never reached disk.
func writeTo(path string, stdout io.Writer, emit func(io.Writer) error) error {
	if path == "" {
		return emit(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeReport writes v in the canonical report encoding (obs.EncodeReport).
func writeReport(path string, stdout io.Writer, v any) error {
	buf, err := obs.EncodeReport(v)
	if err != nil {
		return err
	}
	return writeTo(path, stdout, func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
}

package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"cuttlesys/internal/obs"
)

// runTrace is `cuttlesys trace [flags] trace.jsonl`: it converts and
// summarises trace JSONL, the interchange form every instrumented run
// exports (DESIGN.md §10). By default it prints a human-readable
// summary: the per-phase simulated-time breakdown, the top spans by
// duration, the QoS-violation timeline and the controller search cost.
// -chrome converts the trace to Chrome trace_event JSON loadable in
// chrome://tracing or ui.perfetto.dev; -summary emits the summary as
// canonical report JSON instead. "-" reads the trace from stdin. All
// outputs are keyed to simulated time and byte-deterministic for a
// given input trace.
func runTrace(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cuttlesys trace", flag.ContinueOnError)
	chrome := fs.Bool("chrome", false, "convert to Chrome trace_event JSON")
	summary := fs.Bool("summary", false, "emit the summary as report JSON")
	top := fs.Int("top", 10, "spans to keep in the top-span list")
	var p params
	p.bind(fs, "o")
	pos, err := parse(fs, args)
	if err != nil {
		return err
	}
	if len(pos) != 1 {
		return usageError("trace takes exactly one trace file, got %d", len(pos))
	}
	events, err := readTrace(pos[0])
	if err != nil {
		return err
	}
	return writeTo(p.Out, stdout, func(w io.Writer) error {
		return convert(w, events, *chrome, *summary, *top)
	})
}

// readTrace reads the trace JSONL at path ("-" means stdin).
func readTrace(path string) ([]obs.Event, error) {
	if path == "-" {
		return obs.ReadJSONL(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return obs.ReadJSONL(f)
}

// convert writes events in the selected form; the default is the
// human-readable summary.
func convert(w io.Writer, events []obs.Event, chrome, summary bool, top int) error {
	switch {
	case chrome:
		return obs.WriteChromeTrace(w, events)
	case summary:
		buf, err := obs.EncodeReport(obs.Summarize(events, top))
		if err != nil {
			return err
		}
		_, err = w.Write(buf)
		return err
	default:
		if err := obs.Summarize(events, top).WriteText(w); err != nil {
			return err
		}
		return writeSearchCost(w, events)
	}
}

// searchCost aggregates one search algorithm's controller work across
// the trace's core.search instants.
type searchCost struct {
	algo       string
	count      int
	evals      int64
	dimsScored int64
}

// writeSearchCost appends the controller-cost section to the human
// summary: per algorithm, how many searches ran, how many objective
// evaluations they performed and how many per-dimension contributions
// the evaluator actually scored — the incremental fast path's dims per
// evaluation sits well below the full dimension count (DESIGN.md §11).
// The section lives only in the text form; the JSON summary
// (obs.Summary) is a frozen regression artifact and stays unchanged.
func writeSearchCost(w io.Writer, events []obs.Event) error {
	byAlgo := map[string]*searchCost{}
	for _, e := range events {
		if e.Name != obs.EventSearch {
			continue
		}
		var algo string
		var evals, dims int64
		for i := 0; i < e.Attrs.Len(); i++ {
			a := e.Attrs.At(i)
			switch a.Key {
			case "algo":
				algo = a.Val
			case "evals":
				evals, _ = strconv.ParseInt(a.Val, 10, 64)
			case "dims":
				dims, _ = strconv.ParseInt(a.Val, 10, 64)
			}
		}
		c := byAlgo[algo]
		if c == nil {
			c = &searchCost{algo: algo}
			byAlgo[algo] = c
		}
		c.count++
		c.evals += evals
		c.dimsScored += dims
	}
	if len(byAlgo) == 0 {
		return nil
	}
	costs := make([]*searchCost, 0, len(byAlgo))
	for _, c := range byAlgo {
		costs = append(costs, c)
	}
	sort.Slice(costs, func(i, j int) bool { return costs[i].algo < costs[j].algo })
	if _, err := fmt.Fprintf(w, "\ncontroller search cost:\n"); err != nil {
		return err
	}
	for _, c := range costs {
		perEval := 0.0
		if c.evals > 0 {
			perEval = float64(c.dimsScored) / float64(c.evals)
		}
		_, err := fmt.Fprintf(w, "  %-6s %4d searches %10d evals %12d dims scored %6.2f dims/eval\n",
			c.algo, c.count, c.evals, c.dimsScored, perEval)
		if err != nil {
			return err
		}
	}
	return nil
}

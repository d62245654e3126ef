// Command cuttlelint runs the repository-invariant analyzer suite
// (internal/analysis) over every package of the module and reports
// findings with file:line positions. It exits non-zero if any
// unwaived violation remains; a finding is waived in place with
//
//	//lint:allow <check> <reason>
//
// on the flagged line or the line directly above it.
//
// Usage:
//
//	cuttlelint [-C dir] [-checks determinism,seedflow,...] [-show-allowed] [-json] [packages]
//
// Package patterns are module-relative directories; a trailing /...
// matches the subtree. With no patterns (or ./...) the whole module is
// analyzed. The interprocedural checks (hotpath, lockregion) build
// their call graph from the analyzed packages only, so run them over
// the full module for meaningful chains.
//
// -json emits every finding — waived ones included, marked allowed —
// as a sorted, deterministic JSON array with structured call chains,
// for CI artifacts and tooling. The exit status is unchanged: nonzero
// when unwaived violations remain.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cuttlesys/internal/analysis"
)

func main() {
	dir := flag.String("C", ".", "directory inside the module to lint")
	checks := flag.String("checks", "", "comma-separated subset of checks (default all)")
	showAllowed := flag.Bool("show-allowed", false, "also print findings waived by //lint:allow")
	jsonOut := flag.Bool("json", false, "emit findings as a sorted JSON array (includes waived findings, marked allowed)")
	list := flag.Bool("list", false, "list available checks and exit")
	flag.Parse()

	suite := analysis.Analyzers()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *checks != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range suite {
			byName[a.Name] = a
		}
		suite = suite[:0]
		for _, name := range strings.Split(*checks, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fatalf("unknown check %q (try -list)", name)
			}
			suite = append(suite, a)
		}
	}

	loader, err := analysis.NewLoader(*dir)
	if err != nil {
		fatalf("%v", err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		fatalf("%v", err)
	}
	if pats := flag.Args(); len(pats) > 0 {
		pkgs = filterPackages(loader, pkgs, pats)
	}

	diags := analysis.RunAnalyzers(pkgs, suite)
	if *jsonOut {
		if err := analysis.WriteJSON(os.Stdout, loader.Root, diags); err != nil {
			fatalf("%v", err)
		}
		if n := analysis.Violations(diags); n > 0 {
			fmt.Fprintf(os.Stderr, "cuttlelint: %d violation(s)\n", n)
			os.Exit(1)
		}
		return
	}
	if n := analysis.Format(os.Stdout, loader.Root, diags, *showAllowed); n > 0 {
		fmt.Fprintf(os.Stderr, "cuttlelint: %d violation(s)\n", n)
		os.Exit(1)
	}
}

// filterPackages keeps packages matching the module-relative patterns
// ("./...", "internal/core", "./cmd/...").
func filterPackages(l *analysis.Loader, pkgs []*analysis.Package, pats []string) []*analysis.Package {
	keep := pkgs[:0]
	for _, p := range pkgs {
		rel, err := filepath.Rel(l.Root, p.Dir)
		if err != nil {
			continue
		}
		rel = filepath.ToSlash(rel)
		for _, pat := range pats {
			if matchPattern(rel, pat) {
				keep = append(keep, p)
				break
			}
		}
	}
	return keep
}

func matchPattern(rel, pat string) bool {
	pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
	if pat == "..." {
		return true
	}
	if sub, ok := strings.CutSuffix(pat, "/..."); ok {
		sub = strings.TrimSuffix(sub, "/")
		return sub == "" || sub == "." || rel == sub || strings.HasPrefix(rel, sub+"/")
	}
	if pat == "" || pat == "." {
		return rel == "."
	}
	return rel == pat
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cuttlelint: "+format+"\n", args...)
	os.Exit(1)
}

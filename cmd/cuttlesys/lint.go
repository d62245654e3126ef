package main

import (
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"cuttlesys/internal/analysis"
)

// runLint runs the repository-invariant analyzer suite
// (internal/analysis, DESIGN.md §7) over the module that contains -C
// and prints every unwaived finding as file:line:col: [check] message.
// Package patterns are module-relative directories; a trailing /...
// matches the subtree, and no pattern means the whole module. The
// hotpath check builds its call graph from the analyzed packages only,
// so run it over the full module for meaningful chains. -json prints
// every finding, waived ones marked allowed, as a sorted JSON array
// instead. Either way an unwaived violation is an error.
func runLint(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cuttlesys lint", flag.ContinueOnError)
	dir := fs.String("C", ".", "directory inside the module to lint")
	checks := fs.String("checks", "", "comma-separated subset of checks (default all)")
	showAllowed := fs.Bool("show-allowed", false, "also print findings waived by //lint:allow")
	jsonOut := fs.Bool("json", false, "emit findings as a sorted JSON array (includes waived findings, marked allowed)")
	pats, err := parse(fs, args)
	if err != nil {
		return err
	}
	suite := analysis.Analyzers()
	if *checks != "" {
		var picked []*analysis.Analyzer
		for _, name := range strings.Split(*checks, ",") {
			a, err := pick("check", suite, func(a *analysis.Analyzer) string { return a.Name }, []string{strings.TrimSpace(name)})
			if err != nil {
				return err
			}
			picked = append(picked, a)
		}
		suite = picked
	}

	loader, err := analysis.NewLoader(*dir)
	if err != nil {
		return err
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		return err
	}
	if len(pats) > 0 {
		pkgs = filterPackages(loader, pkgs, pats)
	}

	diags := analysis.RunAnalyzers(pkgs, suite)
	if *jsonOut {
		if err := analysis.WriteJSON(stdout, loader.Root, diags); err != nil {
			return err
		}
	} else {
		analysis.Format(stdout, loader.Root, diags, *showAllowed)
	}
	if n := analysis.Violations(diags); n > 0 {
		return fmt.Errorf("%d violation(s)", n)
	}
	return nil
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

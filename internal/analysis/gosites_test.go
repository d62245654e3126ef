package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// goSites is the roster of every go statement in the module's non-test
// packages: the enclosing function, named as chain frames name it, maps
// to one entry per statement in source order. Each entry names a test
// in the site's package that drives the spawn with at least two
// goroutines. No static check looks for shared writes at these sites;
// the race detector does, when `make race` runs the named tests. A new
// go statement fails TestGoSitesHaveRaceTests until its entry names
// such a test, and so does an entry whose statement is gone.
var goSites = map[string][]string{
	// Every parallel loop runs through par.For; its callers' equality
	// tests drive it with two or more workers too.
	"par.For": {"TestFor"},
}

// TestGoSitesHaveRaceTests holds goSites to the tree: every go
// statement outside _test.go files has an entry, every entry has its
// statement, and every named test exists in the site's directory.
func TestGoSitesHaveRaceTests(t *testing.T) {
	root, pkgs := repoPackages(t)
	tests := map[string]bool{} // dir + " " + test name
	for _, pkg := range pkgs {
		if !pkg.ForTest {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Test") {
					tests[pkg.Dir+" "+fd.Name.Name] = true
				}
			}
		}
	}

	sites := map[string][]token.Position{}
	dirs := map[string]string{}
	for _, fi := range BuildProgram(pkgs).Funcs {
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				sites[fi.Name] = append(sites[fi.Name], fi.Pkg.Fset.Position(g.Pos()))
				dirs[fi.Name] = fi.Pkg.Dir
			}
			return true
		})
	}

	var names []string
	for name := range sites {
		names = append(names, name)
	}
	for name := range goSites {
		if _, ok := sites[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		got, want := sites[name], goSites[name]
		if len(got) != len(want) {
			var at []string
			for _, pos := range got {
				at = append(at, fmt.Sprintf("%s:%d", relPath(root, pos.Filename), pos.Line))
			}
			t.Errorf("%s has %d go statement(s) %v but goSites lists %d: name the -race test that drives each with two or more goroutines",
				name, len(got), at, len(want))
			continue
		}
		for _, test := range want {
			if !tests[dirs[name]+" "+test] {
				t.Errorf("goSites[%q] names %s, which is not a test in %s", name, test, relPath(root, dirs[name]))
			}
		}
	}
}

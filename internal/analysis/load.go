package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked unit of analysis: either the ordinary
// files of a directory, its in-package _test.go files, or its external
// _test package. Files holds only the ASTs the analyzers should walk;
// Info always covers the whole compiled unit so types resolve.
type Package struct {
	Path    string // import path, e.g. "cuttlesys/internal/core"
	ModPath string // module path of the enclosing module
	Dir     string // absolute directory
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	ForTest bool // Files are _test.go files
}

// Loader type-checks a module's packages exactly as `go test` builds
// them. The go command resolves the package graph — files, build
// constraints (tags and file names alike), test variants — and the
// build configuration comes from its environment (GOOS, GOARCH,
// GOFLAGS), as with go vet. Module-local units are type-checked from
// source; everything else is imported from the go command's export
// data. The loader needs only the standard library and the go command
// on PATH, no golang.org/x/tools.
type Loader struct {
	Root    string // module root (directory containing go.mod)
	ModPath string
	Fset    *token.FileSet
}

// NewLoader prepares a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	out, err := goList(dir, "-m", "-json")
	if err != nil {
		return nil, err
	}
	var mod struct{ Path, Dir, GoMod string }
	if err := json.Unmarshal(out, &mod); err != nil {
		return nil, fmt.Errorf("analysis: go list -m: %w", err)
	}
	if mod.GoMod == "" {
		return nil, fmt.Errorf("analysis: no go.mod above %s", dir)
	}
	return &Loader{Root: mod.Dir, ModPath: mod.Path, Fset: token.NewFileSet()}, nil
}

// goList runs `go list args...` in dir with workspaces off, so the
// package graph is exactly the one module, and returns its stdout.
func goList(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	cmd.Env = append(cmd.Environ(), "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %w\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out, nil
}

// listed is the part of one `go list -json` record the loader reads.
type listed struct {
	ImportPath  string // "p", or a variant such as "q [p.test]"
	Dir         string
	Export      string // compiled export data, with -export
	GoFiles     []string
	TestGoFiles []string
	ForTest     string // the package under test, for test variants
	ImportMap   map[string]string
	Module      *struct{ Main bool }
	Error       *struct{ Err string }
}

// listPackages runs `go list -json args...` in dir and returns its
// records in the order printed.
func listPackages(dir string, args ...string) ([]listed, error) {
	out, err := goList(dir, append([]string{"-json"}, args...)...)
	if err != nil {
		return nil, err
	}
	var pkgs []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp listed
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("analysis: go list: %w", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

// LoadAll type-checks every package of the module and its tests, and
// returns the analysed units in directory order, each directory's
// ordinary files, in-package tests and external test package in that
// order. The test variants of dependencies (q [p.test], q recompiled
// against p's test files) are checked so p's tests resolve, but they
// are not analysed.
func (l *Loader) LoadAll() ([]*Package, error) {
	graph, err := listPackages(l.Root, "-e", "-deps", "-test", "./...")
	if err != nil {
		return nil, err
	}
	// Module-local units are checked from source, so only what they
	// import from outside the module needs export data. Asking for that
	// alone spares the go command compiling the module and every test
	// variant of it, which no one would read.
	var deps []string
	for _, lp := range graph {
		if lp.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", lp.ImportPath, strings.TrimSpace(lp.Error.Err))
		}
		if lp.Module == nil || !lp.Module.Main {
			deps = append(deps, lp.ImportPath)
		}
	}
	exports := map[string]string{}
	if len(deps) > 0 {
		built, err := listPackages(l.Root, append([]string{"-e", "-export"}, deps...)...)
		if err != nil {
			return nil, err
		}
		for _, lp := range built {
			exports[lp.ImportPath] = lp.Export
		}
	}
	std := importer.ForCompiler(l.Fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := exports[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("analysis: no export data for %s", path)
	})
	checked := map[string]*types.Package{} // by go list ImportPath, variants included
	parsed := map[string]*ast.File{}       // by file name: variants share their ASTs
	parse := func(dir string, names []string) ([]*ast.File, error) {
		files := make([]*ast.File, len(names))
		for i, name := range names {
			name = filepath.Join(dir, name)
			f, ok := parsed[name]
			if !ok {
				var err error
				if f, err = parser.ParseFile(l.Fset, name, nil, parser.ParseComments|parser.SkipObjectResolution); err != nil {
					return nil, err
				}
				parsed[name] = f
			}
			files[i] = f
		}
		return files, nil
	}
	var pkgs []*Package
	rank := map[*Package]int{}

	// go list -deps prints every package after its dependencies.
	for _, lp := range graph {
		if lp.Module == nil || !lp.Module.Main {
			continue
		}
		if lp.ForTest == "" && strings.HasSuffix(lp.ImportPath, ".test") {
			continue // the generated test main
		}
		if len(lp.GoFiles) == 0 {
			continue // a directory of _test.go files only: no ordinary unit
		}
		files, err := parse(lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		path, _, _ := strings.Cut(lp.ImportPath, " ")
		imp := importerFunc(func(p string) (*types.Package, error) {
			if m, ok := lp.ImportMap[p]; ok {
				p = m
			}
			if tp, ok := checked[p]; ok {
				return tp, nil
			}
			return std.Import(p)
		})
		tpkg, info, err := l.check(path, files, imp)
		if err != nil {
			return nil, err
		}
		checked[lp.ImportPath] = tpkg

		unit := &Package{Path: path, ModPath: l.ModPath, Dir: lp.Dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
		switch {
		case lp.ForTest == "":
			rank[unit] = 0
		case path == lp.ForTest && len(lp.TestGoFiles) > 0:
			unit.ForTest = true
			if unit.Files, err = parse(lp.Dir, lp.TestGoFiles); err != nil {
				return nil, err
			}
			rank[unit] = 1
		case path == lp.ForTest+"_test":
			unit.ForTest = true
			rank[unit] = 2
		default:
			continue // a dependency's test variant
		}
		pkgs = append(pkgs, unit)
	}
	sort.Slice(pkgs, func(i, j int) bool {
		if pkgs[i].Dir != pkgs[j].Dir {
			return pkgs[i].Dir < pkgs[j].Dir
		}
		return rank[pkgs[i]] < rank[pkgs[j]]
	})
	return pkgs, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (l *Loader) check(path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return tpkg, info, nil
}

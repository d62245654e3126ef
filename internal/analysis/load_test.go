package analysis

import (
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// writeModule materialises a throwaway module on disk and returns its
// root. Keys are module-relative paths.
func writeModule(t testing.TB, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, content := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func loadModule(t testing.TB, root string) (*Loader, []*Package) {
	t.Helper()
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	return loader, pkgs
}

// TestLoaderBuildTags verifies //go:build evaluation: the loader's tag
// set includes "gc", so a !gc file must be excluded even though it
// would break the type-check if parsed in.
func TestLoaderBuildTags(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module tagmod\n\ngo 1.22\n",
		"a.go":   "package a\n\nconst V = 1\n",
		"a_gc.go": "//go:build gc\n\npackage a\n\n" +
			"const FromGC = V + 1\n",
		"a_nogc.go": "//go:build !gc\n\npackage a\n\n" +
			"const V = 99 // duplicate: would fail the type-check if included\n",
	})
	_, pkgs := loadModule(t, root)
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if len(pkg.Files) != 2 {
		t.Errorf("got %d files, want 2 (the !gc file excluded)", len(pkg.Files))
	}
	if pkg.Types.Scope().Lookup("FromGC") == nil {
		t.Error("gc-tagged file was not loaded")
	}
}

// TestLoaderTestPackageMerging verifies the three compilation units a
// directory can produce: the base package, the in-package test unit
// (merged with the base files so unexported symbols resolve), and the
// external _test package.
func TestLoaderTestPackageMerging(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module merged\n\ngo 1.22\n",
		"x/x.go": "package x\n\nfunc hidden() int { return 7 }\n\nfunc Exported() int { return hidden() }\n",
		"x/x_internal_test.go": "package x\n\nimport \"testing\"\n\n" +
			"func TestHidden(t *testing.T) { if hidden() != 7 { t.Fail() } }\n",
		"x/x_external_test.go": "package x_test\n\nimport (\n\t\"testing\"\n\n\t\"merged/x\"\n)\n\n" +
			"func TestExported(t *testing.T) { if x.Exported() != 7 { t.Fail() } }\n",
	})
	_, pkgs := loadModule(t, root)
	var base, intest, xtest *Package
	for _, p := range pkgs {
		switch {
		case !p.ForTest:
			base = p
		case p.Types.Name() == "x":
			intest = p
		case p.Types.Name() == "x_test":
			xtest = p
		}
	}
	if base == nil || intest == nil || xtest == nil {
		t.Fatalf("missing units: base=%v intest=%v xtest=%v", base != nil, intest != nil, xtest != nil)
	}
	if len(base.Files) != 1 {
		t.Errorf("base unit has %d files, want 1 (no _test.go)", len(base.Files))
	}
	// The in-package unit resolved hidden() across the merge — reaching
	// here without a LoadAll error already proves it; double-check the
	// symbol is visible through the unit's scope.
	if intest.Types.Scope().Lookup("hidden") == nil {
		t.Error("in-package test unit did not merge base declarations")
	}
}

// TestLoaderSharedTypeIdentity verifies the compile cache: two
// importers of the same package must see the identical *types.Package,
// or cross-package assignability (and the call graph built on it)
// would silently break.
func TestLoaderSharedTypeIdentity(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":      "module shared\n\ngo 1.22\n",
		"common/c.go": "package common\n\ntype T struct{ N int }\n",
		"a/a.go":      "package a\n\nimport \"shared/common\"\n\nfunc A(t common.T) int { return t.N }\n",
		"b/b.go":      "package b\n\nimport \"shared/common\"\n\nfunc B(t common.T) int { return t.N }\n",
	})
	_, pkgs := loadModule(t, root)
	seen := map[string]bool{}
	var first *types.Package
	for _, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			if imp.Path() != "shared/common" {
				continue
			}
			seen[p.Path] = true
			if first == nil {
				first = imp
			} else if first != imp {
				t.Errorf("package %s sees a distinct shared/common instance", p.Path)
			}
		}
	}
	if len(seen) != 2 {
		t.Fatalf("expected 2 importers of shared/common, saw %d", len(seen))
	}
}

// TestLoaderTestBuildDependents verifies that an external test sees
// what `go test` builds: p's export_test.go method is visible to
// p_test, and q, which imports p, is recompiled against that test
// build (q [p.test]), so a p value passed through q keeps its method.
// The variant q is checked but never analysed.
func TestLoaderTestBuildDependents(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":           "module tb\n\ngo 1.22\n",
		"p/p.go":           "package p\n\ntype T struct{ n int }\n\nfunc New(n int) T { return T{n} }\n",
		"p/export_test.go": "package p\n\nfunc (t T) N() int { return t.n }\n",
		"q/q.go":           "package q\n\nimport \"tb/p\"\n\nfunc Pass(t p.T) p.T { return t }\n",
		"p/p_test.go": "package p_test\n\nimport (\n\t\"testing\"\n\n\t\"tb/p\"\n\t\"tb/q\"\n)\n\n" +
			"func TestN(t *testing.T) { if q.Pass(p.New(3)).N() != 3 { t.Fail() } }\n",
		"t/t_test.go": "package t\n\nimport \"testing\"\n\nfunc TestT(t *testing.T) {}\n",
	})
	_, pkgs := loadModule(t, root)
	var units []string
	var xtest *Package
	for _, p := range pkgs {
		units = append(units, fmt.Sprintf("%s test=%v files=%d", p.Path, p.ForTest, len(p.Files)))
		if p.Path == "tb/p_test" {
			xtest = p
		}
	}
	want := []string{
		"tb/p test=false files=1", "tb/p test=true files=1", "tb/p_test test=true files=1",
		"tb/q test=false files=1",
		"tb/t test=true files=1", // a test-only directory has no ordinary unit
	}
	if !reflect.DeepEqual(units, want) {
		t.Fatalf("analysed units:\n got %q\nwant %q", units, want)
	}
	imports := map[string]*types.Package{}
	for _, imp := range xtest.Types.Imports() {
		imports[imp.Path()] = imp
	}
	if qp := imports["tb/q"].Imports()[0]; qp != imports["tb/p"] {
		t.Error("p_test's q sees a different tb/p from p_test itself")
	}
}

// TestLoaderFileNameConstraints verifies that a file named for another
// GOOS or GOARCH is excluded, as the go command excludes it, with no
// //go:build line to say so.
func TestLoaderFileNameConstraints(t *testing.T) {
	goos, goarch := "plan9", "s390x"
	if runtime.GOOS == goos {
		goos = "windows"
	}
	if runtime.GOARCH == goarch {
		goarch = "riscv64"
	}
	root := writeModule(t, map[string]string{
		"go.mod":                    "module fnmod\n\ngo 1.22\n",
		"a.go":                      "package a\n\nconst V = 1\n",
		"a_" + goos + ".go":         "package a\n\nconst V = 2 // duplicate: would fail the type-check if included\n",
		"a_" + goarch + ".go":       "package a\n\nconst V = 3\n",
		"b_" + runtime.GOOS + ".go": "package a\n\nconst W = V + 1\n",
	})
	_, pkgs := loadModule(t, root)
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	if n := len(pkgs[0].Files); n != 2 {
		t.Errorf("got %d files, want 2 (a.go and the host's b_%s.go)", n, runtime.GOOS)
	}
	if pkgs[0].Types.Scope().Lookup("W") == nil {
		t.Errorf("b_%s.go, named for the host, was not loaded", runtime.GOOS)
	}
}

// BenchmarkLoadAll pins the loader's cost over this repository — the
// dominant cost of a lint run, paid once and shared by every analyzer
// through the compile cache.
func BenchmarkLoadAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		loader, err := NewLoader("../..")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := loader.LoadAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildProgram pins the incremental cost of the call-graph
// engine on top of already-loaded packages: the wide analyzers share
// one Program per run, so this is paid once regardless of how many
// interprocedural passes are enabled.
func BenchmarkBuildProgram(b *testing.B) {
	loader, err := NewLoader("../..")
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildProgram(pkgs)
	}
}

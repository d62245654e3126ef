package analysis

import "testing"

func fnByName(t *testing.T, prog *Program, name string) *FuncInfo {
	t.Helper()
	for _, fi := range prog.Funcs {
		if fi.Name == name {
			return fi
		}
	}
	t.Fatalf("no function named %q in program", name)
	return nil
}

func hasSucc(prog *Program, from *FuncInfo, to string, withRefs bool) bool {
	for _, s := range prog.succs(from, withRefs) {
		if s.target.Name == to {
			return true
		}
	}
	return false
}

// TestCallGraphStaticAndInterface checks the two dispatch modes: a
// plain cross-package call, and an interface method call resolved by
// assignability to a module-local implementation its caller never
// imports.
func TestCallGraphStaticAndInterface(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":       "module graph\n\ngo 1.22\n",
		"meta/meta.go": "package meta\n\nfunc Stamp() int { return 1 }\n",
		"tab/tab.go":   "package tab\n\ntype Table struct{ N int }\n\nfunc (t Table) Rows() int { return t.N }\n",
		"obs/obs.go": `package obs

import "graph/meta"

type Source interface{ Rows() int }

func WriteReport(s Source) int { return s.Rows() + meta.Stamp() }
`,
	})
	_, pkgs := loadModule(t, root)
	prog := BuildProgram(pkgs)

	write := fnByName(t, prog, "obs.WriteReport")
	if !hasSucc(prog, write, "meta.Stamp", false) {
		t.Error("static cross-package edge obs.WriteReport → meta.Stamp missing")
	}
	var ifaceResolved bool
	for _, cs := range write.Calls {
		for _, callee := range cs.Callees {
			if cs.Iface && callee.Name == "tab.Table.Rows" {
				ifaceResolved = true
			}
		}
	}
	if !ifaceResolved {
		t.Error("interface call Source.Rows did not resolve to tab.Table.Rows")
	}
}

// TestCallGraphValueRefs checks the conservative function-value edge:
// a function passed as a value is a successor of the passer.
func TestCallGraphValueRefs(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module refs\n\ngo 1.22\n",
		"a/a.go": `package a

func apply(f func(int) int, x int) int { return f(x) }

func double(x int) int { return x + x }

// Chain hands double to apply as a value: no direct call edge, but a
// reference edge the transitive passes must follow.
func Chain(x int) int { return apply(double, x) }
`,
	})
	_, pkgs := loadModule(t, root)
	prog := BuildProgram(pkgs)
	chain := fnByName(t, prog, "a.Chain")
	if !hasSucc(prog, chain, "a.double", true) {
		t.Error("value-reference edge a.Chain → a.double missing with refs enabled")
	}
	if hasSucc(prog, chain, "a.double", false) {
		t.Error("a.double is not called directly; it must only appear as a reference edge")
	}
	if !hasSucc(prog, chain, "a.apply", false) {
		t.Error("direct call edge a.Chain → a.apply missing")
	}
}

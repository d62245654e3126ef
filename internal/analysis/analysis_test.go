package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"cuttlesys/internal/pin"
)

// analyzerByName looks up one analyzer from the registry.
func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

// runFixture loads the fixture module under testdata/<name> and runs the
// single named analyzer over it, returning the formatted report.
func runFixture(t *testing.T, name string) string {
	t.Helper()
	loader, pkgs := loadModule(t, filepath.Join("testdata", name))
	diags := RunAnalyzers(pkgs, []*Analyzer{analyzerByName(t, name)})
	var buf bytes.Buffer
	Format(&buf, loader.Root, diags, true)
	return buf.String()
}

// TestGolden checks each analyzer's exact diagnostics over its fixture
// module, and that every fixture demonstrates both a caught violation
// and an honored //lint:allow waiver.
func TestGolden(t *testing.T) {
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			got := runFixture(t, a.Name)
			pin.Golden(t, filepath.Join(a.Name, "want.txt"), []byte(got))

			var violations, allowed int
			for _, line := range strings.Split(strings.TrimRight(got, "\n"), "\n") {
				if strings.Contains(line, "(allowed: ") {
					allowed++
				} else if line != "" {
					violations++
				}
			}
			if violations == 0 {
				t.Errorf("fixture %s caught no violations", a.Name)
			}
			if allowed == 0 {
				t.Errorf("fixture %s honored no //lint:allow directive", a.Name)
			}
		})
	}
}

// repoRun caches this repository's packages and the full suite's run
// over them: loading the module dominates the cost, and the tests
// below only read it.
var repoRun struct {
	root   string
	pkgs   []*Package
	linted bool
	diags  []Diagnostic
}

// repoPackages loads this repository once per test binary.
func repoPackages(t *testing.T) (string, []*Package) {
	t.Helper()
	if repoRun.pkgs == nil {
		loader, pkgs := loadModule(t, "../..")
		repoRun.root, repoRun.pkgs = loader.Root, pkgs
	}
	return repoRun.root, repoRun.pkgs
}

func lintRepo(t *testing.T) (string, []Diagnostic) {
	t.Helper()
	root, pkgs := repoPackages(t)
	if !repoRun.linted {
		repoRun.diags, repoRun.linted = RunAnalyzers(pkgs, Analyzers()), true
	}
	return root, repoRun.diags
}

// TestRepoIsLintClean runs the full suite over this repository: the
// invariants cuttlelint enforces must hold on the tree that ships it.
func TestRepoIsLintClean(t *testing.T) {
	root, diags := lintRepo(t)
	var buf bytes.Buffer
	if n := Format(&buf, root, diags, false); n != 0 {
		t.Errorf("repository has %d lint violation(s):\n%s", n, buf.String())
	}
}

// TestRepoFindingsReportedOnce checks that each invariant has one
// check: no two findings over this repository share a position, so
// every finding has exactly one waiver name.
func TestRepoFindingsReportedOnce(t *testing.T) {
	root, diags := lintRepo(t)
	seen := map[string]string{}
	for _, d := range diags {
		at := fmt.Sprintf("%s:%d:%d", relPath(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column)
		if prev, ok := seen[at]; ok {
			t.Errorf("%s reported by both %s and %s", at, prev, d.Check)
		}
		seen[at] = d.Check
	}
}

// TestStaleWaiverAudit verifies that a full-suite run reports
// directives that suppress nothing, and that a subset run — which
// cannot prove a waiver dead — stays silent about them.
func TestStaleWaiverAudit(t *testing.T) {
	_, pkgs := loadModule(t, filepath.Join("testdata", "stale"))
	var stale []Diagnostic
	for _, d := range RunAnalyzers(pkgs, Analyzers()) {
		if d.Check == "lint" && strings.Contains(d.Message, "stale //lint:allow") {
			stale = append(stale, d)
		}
	}
	if len(stale) != 1 {
		t.Fatalf("full run: got %d stale-waiver reports, want exactly 1 (Pure's)", len(stale))
	}
	if base := filepath.Base(stale[0].Pos.Filename); base != "stale.go" {
		t.Errorf("stale report in %s, want stale.go", base)
	}
	// Wall's directive suppressed a real finding, so only Pure's line
	// may be reported.
	if stale[0].Pos.Line != 14 {
		t.Errorf("stale report at line %d, want 14 (Pure's directive)", stale[0].Pos.Line)
	}

	for _, d := range RunAnalyzers(pkgs, []*Analyzer{analyzerByName(t, "determinism")}) {
		if d.Check == "lint" && strings.Contains(d.Message, "stale") {
			t.Errorf("subset run reported a stale waiver: %s", d.Message)
		}
	}
}

// TestWriteJSONDeterministic verifies the -json wire form: valid JSON,
// byte-identical across runs, with structured chains and allowed
// markers.
func TestWriteJSONDeterministic(t *testing.T) {
	loader, pkgs := loadModule(t, filepath.Join("testdata", "hotpath"))
	render := func() string {
		diags := RunAnalyzers(pkgs, []*Analyzer{analyzerByName(t, "hotpath")})
		var buf bytes.Buffer
		if err := WriteJSON(&buf, loader.Root, diags); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := render()
	if second := render(); first != second {
		t.Error("WriteJSON output differs across identical runs")
	}
	if !json.Valid([]byte(first)) {
		t.Fatal("WriteJSON emitted invalid JSON")
	}
	var out []map[string]any
	if err := json.Unmarshal([]byte(first), &out); err != nil {
		t.Fatal(err)
	}
	var chains, allowed int
	for _, d := range out {
		if _, ok := d["chain"]; ok {
			chains++
		}
		if d["allowed"] == true {
			allowed++
		}
	}
	if chains == 0 {
		t.Error("no diagnostic carried a structured chain")
	}
	if allowed == 0 {
		t.Error("no waived diagnostic was marked allowed")
	}
}

// TestAllowDirectiveForOtherCheckIsNotUnknown verifies that a subset run
// does not misreport a directive naming a different registered check.
func TestAllowDirectiveForOtherCheckIsNotUnknown(t *testing.T) {
	// The determinism fixture's allowed package carries determinism
	// directives; running only seedflow over it must yield no "lint"
	// diagnostics about unknown checks.
	_, pkgs := loadModule(t, filepath.Join("testdata", "determinism"))
	for _, d := range RunAnalyzers(pkgs, []*Analyzer{analyzerByName(t, "seedflow")}) {
		if d.Check == "lint" && strings.Contains(d.Message, "unknown check") {
			t.Errorf("directive for registered check misreported: %s", d.Message)
		}
	}
}

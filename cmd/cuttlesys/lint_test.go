package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		rel, pat string
		want     bool
	}{
		{"internal/core", "./...", true},
		{"internal/core", "...", true},
		{".", "./...", true},
		{"internal/core", "internal/...", true},
		{"internal/core", "./internal/...", true},
		{"internal", "internal/...", true},
		{"internals/core", "internal/...", false},
		{"internal/core", "internal/core", true},
		{"internal/core", "internal/cor", false},
		{"internal/core/deep", "internal/core/...", true},
		{".", ".", true},
		{"cmd/cuttlesys", ".", false},
		{"cmd/cuttlesys", "cmd/...", true},
		{"cmd/cuttlesys", "experiments/...", false},
	}
	for _, c := range cases {
		if got := matchPattern(c.rel, c.pat); got != c.want {
			t.Errorf("matchPattern(%q, %q) = %v, want %v", c.rel, c.pat, c.want, got)
		}
	}
}

// TestLintExternalModule lints a two-finding module through -C: the
// unwaived finding is printed with its position and makes the command
// fail, -show-allowed adds the waived one, -checks narrows the suite,
// package patterns narrow the packages, and -json carries both
// findings, the waived one marked allowed, byte-identically run to run.
func TestLintExternalModule(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module ext\n\ngo 1.22\n",
		"lib/lib.go": `package lib

import "time"

// Stamp reads the wall clock.
func Stamp() int64 { return time.Now().UnixNano() }

// Waived reads it too, under a waiver.
func Waived() int64 {
	return time.Now().UnixNano() //lint:allow determinism fixture waiver
}
`,
		"other/other.go": "package other\n\n// One is clean.\nfunc One() int { return 1 }\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	lint := func(args ...string) (string, error) {
		var out bytes.Buffer
		err := run(append([]string{"lint", "-C", dir}, args...), &out)
		return out.String(), err
	}

	out, err := lint("./...")
	if err == nil || err.Error() != "lint: 1 violation(s)" {
		t.Fatalf("lint ./... error = %v, want 1 violation", err)
	}
	want := "lib/lib.go:6:29: [determinism] call to time.Now reads the wall clock; seeded reports must not depend on host time\n"
	if out != want {
		t.Errorf("lint ./... printed\n%s\nwant\n%s", out, want)
	}
	if out, _ := lint("-show-allowed", "./..."); !strings.Contains(out, "(allowed: fixture waiver)") || strings.Count(out, "\n") != 2 {
		t.Errorf("-show-allowed printed\n%s\nwant both findings, the waived one marked allowed", out)
	}
	if out, err := lint("-checks", "seedflow,errdrop", "./..."); err != nil || out != "" {
		t.Errorf("-checks seedflow,errdrop: %q, %v; want clean", out, err)
	}
	if out, err := lint("other"); err != nil || out != "" {
		t.Errorf("lint other: %q, %v; want clean", out, err)
	}
	if _, err := lint("-checks", "lockstep"); !errors.Is(err, errUsage) {
		t.Errorf("-checks lockstep: error %v, want a usage error", err)
	}

	first, err := lint("-json", "./...")
	if err == nil {
		t.Fatal("-json exited clean on a violating module")
	}
	var diags []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Allowed bool   `json:"allowed"`
	}
	if err := json.Unmarshal([]byte(first), &diags); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, first)
	}
	if len(diags) != 2 || diags[0].Allowed || !diags[1].Allowed || diags[1].File != "lib/lib.go" || diags[1].Line != 10 {
		t.Errorf("-json findings %+v, want lib.go:6 unwaived then lib.go:10 allowed", diags)
	}
	if second, _ := lint("-json", "./..."); second != first {
		t.Error("-json output differs across identical runs")
	}
}

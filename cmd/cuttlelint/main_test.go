package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
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

// TestDriverRepoClean builds and runs the cuttlelint binary over this
// repository end to end: the driver must exit 0 on the shipped tree.
func TestDriverRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping driver build in -short mode")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool not available: %v", err)
	}
	bin := t.TempDir() + "/cuttlelint"
	build := exec.Command(goTool, "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := exec.Command(bin, "-C", "../..", "./...")
	if out, err := run.CombinedOutput(); err != nil {
		t.Errorf("cuttlelint ./... on repo: %v\n%s", err, out)
	}

	// -json must also exit 0 on the clean tree, emit a valid array, and
	// be byte-identical across runs (it is uploaded as a CI artifact).
	jsonRun := func() []byte {
		cmd := exec.Command(bin, "-C", "../..", "-json", "./...")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("cuttlelint -json on repo: %v", err)
		}
		return out
	}
	first := jsonRun()
	if !json.Valid(first) {
		t.Fatalf("-json output is not valid JSON:\n%s", first)
	}
	var diags []map[string]any
	if err := json.Unmarshal(first, &diags); err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d["allowed"] != true {
			t.Errorf("clean repo -json contains an unwaived finding: %v", d)
		}
	}
	if second := jsonRun(); !bytes.Equal(first, second) {
		t.Error("-json output differs across identical runs")
	}
}

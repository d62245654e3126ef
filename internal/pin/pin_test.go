package pin

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recorder is a testing.TB that keeps its failures instead of failing.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// TestLedger runs each case's "name=value" checks against its pins.json
// in one run, with -update at upd: a value "{…}" is a table of digests,
// a name "?…" a canary.
func TestLedger(t *testing.T) {
	ab := "{\n  \"a\": \"0x1\",\n  \"b\": \"0x2\"\n}\n"
	tbl, tbl2 := `{"t": {"j": "0x3", "k": "0x2"}}`, "{\n  \"t\": {\n    \"j\": \"0x3\",\n    \"k\": \"0x2\"\n  }\n}\n"
	// A 25-key table, and the same with key k13 moved.
	var big, bigMoved []string
	for i := range 25 {
		big = append(big, fmt.Sprintf(`"k%02d": "0x%x"`, i, i))
	}
	bigMoved = append(bigMoved, big...)
	bigMoved[13] = `"k13": "0x99"`
	bigTbl := `{"t": {` + strings.Join(big, ", ") + `}}`
	for _, c := range []struct {
		name, pins string
		upd        bool
		checks     []string
		fail       string // what the run's one failure says, "" for none
		after      string // the file after the run
	}{
		{"a missing entry names make regen", ab, false, []string{"c=0x1"}, "run make regen", ab},
		{"so does a missing file", "", false, []string{"c=0x1"}, "run make regen", ""},
		{"a name checked twice must agree", ab, false, []string{"a=0x1", "a=0x1", "a=0x2"}, "checked twice", ab},
		{"under -update too", ab, true, []string{"a=0x1", "a=0x2"}, "checked twice", ab},
		{"-update keeps what it did not check", ab, true, []string{"a=0x3"}, "", strings.Replace(ab, "0x1", "0x3", 1)},
		{"-update over what it wrote writes the same bytes", ab, true, []string{"b=0x2", "a=0x1"}, "", ab},
		{"so does a table", tbl2, true, []string{`t={"k":"0x2","j":"0x3"}`}, "", tbl2},
		{"a table holds", tbl, false, []string{`t={"k":"0x2","j":"0x3"}`}, "", tbl},
		{"a table gaining a key moves", tbl, false, []string{`t={"k":"0x2","j":"0x3","x":"0x4"}`}, "moved: x added: 0x4 (", tbl},
		{"a table losing a key moves", tbl, false, []string{`t={"k":"0x2"}`}, "moved: j removed: pinned 0x3 (", tbl},
		{"a table digest moving moves", tbl, false, []string{`t={"k":"0x2","j":"0x4"}`}, "moved", tbl},
		{"a table move names the keys that moved", tbl, false, []string{`t={"k":"0x2","j":"0x4","x":"0x5"}`},
			`moved: j: 0x4, pinned 0x3; x added: 0x5 (`, tbl},
		{"a moved key of 25 is the only one named", bigTbl, false, []string{"t={" + strings.Join(bigMoved, ",") + "}"},
			`moved: k13: 0x99, pinned 0xd (`, bigTbl},
		{"a canary that differs does not fail", ab, false, []string{"?a=0x9"}, "", ab},
		{"-update never writes a canary", ab, true, []string{"?a=0x9", "b=0x2"}, "", ab},
		{"nor records a missing one", ab, true, []string{"?c=0x9"}, "by hand", ab},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "pins.json")
			if c.pins != "" {
				if err := os.WriteFile(path, []byte(c.pins), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			r, l := &recorder{TB: t}, &ledger{path: path, update: &c.upd}
			for _, chk := range c.checks {
				name, v, _ := strings.Cut(chk, "=")
				var got any = v
				if strings.HasPrefix(v, "{") && json.Unmarshal([]byte(v), &got) != nil {
					t.Fatalf("bad table %s", v)
				}
				name, canary := strings.CutPrefix(name, "?")
				l.check(r, name, got, canary)
			}
			b, _ := os.ReadFile(path)
			if errs := r.errs; (c.fail == "") != (len(errs) == 0) || len(errs) > 1 || len(errs) == 1 && !strings.Contains(errs[0], c.fail) {
				t.Errorf("failures %q, want one saying %q", errs, c.fail)
			}
			if string(b) != c.after {
				t.Errorf("pins.json after the run:\n%s\nwant\n%s", b, c.after)
			}
		})
	}
}

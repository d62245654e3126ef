package scenario

import (
	"bytes"
	"strings"
	"testing"

	"cuttlesys/internal/core"
	"cuttlesys/internal/fleet"
	"cuttlesys/internal/pin"
	"cuttlesys/specs"
)

func TestParseShareDefaults(t *testing.T) {
	s, err := Parse([]byte("scenario s\nshare\n"))
	if err != nil {
		t.Fatal(err)
	}
	sh := s.Share
	if sh == nil {
		t.Fatal("share clause not recorded")
	}
	if sh.SyncPeriod != 4 || sh.Decay.Value() != 0.5 || sh.FineTune != 40 || sh.Confidence != 2 {
		t.Errorf("share defaults = %+v, want syncperiod=4 decay=0.5 finetune=40 confidence=2", sh)
	}
	canon := Format(s)
	if !strings.Contains(string(canon), "share syncperiod=4 decay=0.5 finetune=40 confidence=2\n") {
		t.Errorf("canonical form lacks the explicit share line:\n%s", canon)
	}
	again, err := Parse(canon)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(Format(again), canon) {
		t.Error("share canonical form is not a fixed point")
	}
}

func TestParseShareExplicit(t *testing.T) {
	s, err := Parse([]byte("scenario s\nshare syncperiod=2 decay=3/4 finetune=10 confidence=1\n"))
	if err != nil {
		t.Fatal(err)
	}
	sh := s.Share
	if sh.SyncPeriod != 2 || sh.FineTune != 10 || sh.Confidence != 1 {
		t.Errorf("share = %+v", sh)
	}
	if sh.Decay.String() != "3/4" {
		t.Errorf("decay spelled %q, want the rational 3/4 preserved", sh.Decay)
	}
	canon := Format(s)
	if !strings.Contains(string(canon), "share syncperiod=2 decay=3/4 finetune=10 confidence=1\n") {
		t.Errorf("canonical form:\n%s", canon)
	}
}

func TestShareValidation(t *testing.T) {
	cases := []struct {
		name    string
		clause  string
		wantSub string
	}{
		{"decay one", "share decay=1", "decay"},
		{"decay above one", "share decay=1.5", "decay"},
		{"negative syncperiod", "share syncperiod=-2", "syncperiod"},
		{"negative finetune", "share finetune=-1", "finetune"},
		{"negative confidence", "share confidence=-3", "confidence"},
		{"unknown parameter", "share cadence=4", "cadence"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte("scenario s\n" + tc.clause + "\n"))
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error = %v, want mention of %q", err, tc.wantSub)
			}
		})
	}
}

// TestShareBuildWiring drives a share-enabled spec end to end through
// the scenario builders and checks the plane actually saw traffic:
// publishes and aggregate folds at the clause's cadence.
func TestShareBuildWiring(t *testing.T) {
	if testing.Short() {
		t.Skip("full fleet run in -short mode")
	}
	c := mustCompile(t, `scenario shared
service xapian
machines 2
slices 6
load 0.5
cap 0.8
mix jobs=4
share syncperiod=2
`, Options{Seed: 1})
	if c.Spec.Share == nil {
		t.Fatal("compiled spec lost the share clause")
	}
	pl := c.sharePlane()
	if pl == nil {
		t.Fatal("sharePlane returned nil for a share-enabled spec")
	}
	if got := planeParams(c.Spec.Share).SyncPeriod; got != 2 {
		t.Fatalf("plane sync period = %d, want the clause's 2", got)
	}
	specs, err := c.nodes(nil)
	if err != nil {
		t.Fatal(err)
	}
	router, arbiter, err := c.Policy()
	if err != nil {
		t.Fatal(err)
	}
	f, err := fleet.New(fleet.Config{Router: router, Arbiter: arbiter, Share: pl}, specs...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Run(c.Slices, c.LoadPat, c.BudgetPat); err != nil {
		t.Fatal(err)
	}
	publishes, aggregates, _ := pl.Totals()
	// 6 slices at period 2 → folds after slices 1, 3, 5; two machines
	// publishing each round once their models have trained.
	if aggregates == 0 || publishes == 0 {
		t.Errorf("plane saw %d publishes, %d aggregates; want both positive", publishes, aggregates)
	}
	stats := pl.Stats()
	if len(stats) != 1 {
		t.Fatalf("%d share keys, want 1 (both machines run the same mix)", len(stats))
	}
}

// TestShareKeyPinned holds the model-sharing key of the sim spec's
// machine (its service, training split, batch-mix size and
// reconstruction rank) to its recorded value: a change to what the key
// hashes — the rank a reconstruction actually trains at included —
// would split every fleet's aggregation.
func TestShareKeyPinned(t *testing.T) {
	src, err := specs.Source("sim")
	if err != nil {
		t.Fatal(err)
	}
	c := mustCompile(t, string(src), Options{Seed: 1})
	nds, err := c.nodes(nil)
	if err != nil {
		t.Fatal(err)
	}
	rt, ok := nds[0].Scheduler.(*core.Runtime)
	if !ok {
		t.Fatalf("sim spec's scheduler is %T, want *core.Runtime", nds[0].Scheduler)
	}
	pin.Check(t, "share-key-sim", rt.ShareKey())
}

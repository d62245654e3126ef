package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cuttlesys/internal/pin"
	"cuttlesys/specs"
)

// goldenInput is a kitchen-sink spec written with comments, loose
// spacing, rational numbers and every clause kind; goldenCanonical is
// its one canonical rendering.
const goldenInput = `
# A kitchen-sink scenario exercising the whole grammar.
scenario golden-mixed
describe two clients, faults and a managed control plane
service xapian
machines 4
slices 24
load 0.7          # fraction of fleet capacity
cap 0.65
mix jobs=8 train=16 trainseed=1
policy router=qos-aware arbiter=headroom
budget step lo=1 hi=0.65 from=1/3 to=2/3

client interactive {
  fraction 3/4
  slo critical
  workloads xapian moses
  arrival diurnal lo=0.5 hi=1.25 max=0.95 period=1 over=bursty cv=2
}

client batchy {
  fraction 1/4
  arrival poisson events=64
}

fault machine=1 {
  event core-failstop start=0.3 end=0.9 cores=8 batchcores=2
}

fault machine=2 salt=0x5eed {
  event budget-drop start=1.1 end=inf factor=0.7
}

control {
  replace-evicted
  health suspectafter=2 probationweight=1/4
  scale upafter=2 downafter=3 cooldown=4 maxadd=2
}
`

const goldenCanonical = `scenario golden-mixed
describe two clients, faults and a managed control plane
service xapian
machines 4
slices 24
load 0.7
cap 0.65
mix jobs=8 train=16 trainseed=1
policy router=qos-aware arbiter=headroom
budget step lo=1 hi=0.65 from=1/3 to=2/3

client interactive {
  fraction 3/4
  slo critical
  workloads xapian moses
  arrival diurnal lo=0.5 hi=1.25 max=0.95 period=1 over=bursty cv=2
}

client batchy {
  fraction 1/4
  slo standard
  arrival poisson rate=1 events=64
}

fault machine=1 {
  event core-failstop start=0.3 end=0.9 cores=8 batchcores=2
}

fault machine=2 salt=0x5eed {
  event budget-drop start=1.1 end=inf factor=0.7
}

control {
  replace-evicted
  health suspectafter=2 probationweight=1/4
  scale upafter=2 downafter=3 cooldown=4 maxadd=2
}
`

func TestParseFormatRoundTrip(t *testing.T) {
	s, err := Parse([]byte(goldenInput))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	got := Format(s)
	if string(got) != goldenCanonical {
		t.Errorf("canonical form mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, goldenCanonical)
	}
	// The canonical form must be a fixed point.
	s2, err := Parse(got)
	if err != nil {
		t.Fatalf("Parse(Format): %v", err)
	}
	if !bytes.Equal(Format(s2), got) {
		t.Errorf("Format is not a fixed point under Parse")
	}
	if Hash(s) != Hash(s2) {
		t.Errorf("Hash changed across round trip")
	}
}

func TestParseDefaults(t *testing.T) {
	s, err := Parse([]byte("scenario minimal\nservice xapian\n"))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Mix.Jobs != 16 || s.Mix.Train != 16 || s.Mix.TrainSeed != 1 {
		t.Errorf("mix defaults = %+v, want jobs=16 train=16 trainseed=1", s.Mix)
	}
	if s.Policy.Router != "uniform" || s.Policy.Arbiter != "proportional" {
		t.Errorf("policy defaults = %+v", s.Policy)
	}
	if s.Budget.Kind != ProcConstant || s.Budget.Env.Rate.Value() != 1 {
		t.Errorf("budget defaults = %+v", s.Budget)
	}
	if len(s.Clients) != 1 {
		t.Fatalf("implicit client missing: %+v", s.Clients)
	}
	c := s.Clients[0]
	if c.Name != "primary" || c.SLO != SLOStandard || c.Fraction.Value() != 1 ||
		c.Arrival.Process != ProcConstant {
		t.Errorf("implicit client = %+v", c)
	}
}

// An integer key spelled as zero keeps its zero: only a key the clause
// does not give takes its default.
func TestParseKeepsExplicitZero(t *testing.T) {
	cases := []struct {
		clause string
		got    func(*Spec) uint64
	}{
		{"mix jobs=0", func(s *Spec) uint64 { return uint64(s.Mix.Jobs) }},
		{"mix train=0", func(s *Spec) uint64 { return uint64(s.Mix.Train) }},
		{"mix trainseed=0", func(s *Spec) uint64 { return s.Mix.TrainSeed }},
	}
	for _, tc := range cases {
		t.Run(tc.clause, func(t *testing.T) {
			s, err := Parse([]byte("scenario x\n" + tc.clause + "\n"))
			if err != nil {
				t.Fatal(err)
			}
			if v := tc.got(s); v != 0 {
				t.Errorf("%s parsed as %d", tc.clause, v)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"unknown directive", "scenario x\nservice xapian\nbogus 3\n", "unknown directive"},
		{"unclosed block", "scenario x\nservice xapian\nclient a {\n", "unclosed client"},
		{"unmatched close", "scenario x\n}\n", "unmatched '}'"},
		{"bad number", "scenario x\nload nope\n", "bad number"},
		{"zero denominator", "scenario x\nload 1/0\n", "zero denominator"},
		{"step missing levels", "scenario x\nservice xapian\nbudget step from=0.2\n", "needs lo= and hi="},
		{"bad budget kind", "scenario x\nbudget poisson\n", "not constant, step or diurnal"},
		{"unknown fault kind", "scenario x\nfault machine=0 {\nevent melt start=0 end=1\n}\n", "unknown kind"},
		{"empty fault block", "scenario x\nfault machine=0 {\n}\n", "no events"},
		{"unknown env key", "scenario x\nservice xapian\nclient a {\narrival constant wat=3\n}\n", "unknown envelope parameter"},
		{"missing name", "service xapian\n", "name"},
		{"over on stochastic", "scenario x\nservice xapian\nclient a {\narrival poisson over=bursty\n}\n", "over="},
		{"trace missing file", "scenario x\nservice xapian\nclient a {\narrival trace client=web\n}\n", "file"},
		{"dup client", "scenario x\nservice xapian\nclient a {\n}\nclient a {\n}\n", "duplicate"},
		{"bad slo", "scenario x\nservice xapian\nclient a {\nslo gold\n}\n", "slo"},

		// Values a consumer would silently replace are out of range.
		{"negative health count", "scenario x\ncontrol {\nhealth suspectafter=-2\n}\n", "suspectafter=-2"},
		{"probation weight above one", "scenario x\ncontrol {\nhealth probationweight=3\n}\n", "probationweight=3"},
		{"negative cooldown", "scenario x\ncontrol {\nscale cooldown=-1\n}\n", "cooldown=-1"},
		{"negative up util", "scenario x\ncontrol {\nscale uputil=-0.5\n}\n", "uputil=-0.5"},
		{"budget fraction above one", "scenario x\ncontrol {\nscale minbudgetfrac=1.5\n}\n", "minbudgetfrac=1.5"},
		{"negative cores", "scenario x\nfault machine=0 {\nevent core-failstop start=0 end=1 cores=-3\n}\n", "cores=-3"},
		{"negative prob", "scenario x\nfault machine=0 {\nevent profile-corrupt start=0 end=1 prob=-1\n}\n", "prob=-1"},
		{"prob above one", "scenario x\nfault machine=0 {\nevent telemetry-garbage start=0 end=1 prob=2\n}\n", "prob=2"},
		{"negative factor", "scenario x\nfault machine=0 {\nevent core-failslow start=0 end=1 factor=-2\n}\n", "factor=-2"},
		{"negative magnitude", "scenario x\nfault machine=0 {\nevent profile-corrupt start=0 end=1 magnitude=-1\n}\n", "magnitude=-1"},
		// An explicit zero is kept, never replaced by the default, so the
		// range refuses it.
		{"zero sync period", "scenario x\nshare syncperiod=0\n", "syncperiod=0"},
		{"zero fine-tune", "scenario x\nshare finetune=0\n", "finetune=0"},
		{"zero confidence", "scenario x\nshare confidence=0\n", "confidence=0"},

		// A repeated singular directive or key would drop or mix content.
		{"repeated control", "scenario x\ncontrol {\nhealth suspectafter=2\n}\ncontrol {\nreplace-evicted\n}\n", "repeated control directive (first on line 2)"},
		{"repeated share", "scenario x\nshare syncperiod=2\nshare decay=0.25\n", "repeated share"},
		{"repeated budget", "scenario x\nbudget step lo=1 hi=0.5\nbudget constant\n", "repeated budget"},
		{"repeated arrival", "scenario x\nclient a {\narrival step lo=1 hi=2\narrival poisson\n}\n", "repeated arrival"},
		{"repeated health", "scenario x\ncontrol {\nhealth suspectafter=1\nhealth drainafter=2\n}\n", "repeated health"},
		{"repeated scale", "scenario x\ncontrol {\nscale upafter=1\nscale maxadd=2\n}\n", "repeated scale"},
		{"repeated machines", "scenario x\nmachines 2\nmachines 3\n", "repeated machines"},
		{"repeated key", "scenario x\nmix jobs=4 jobs=8\n", "repeated mix parameter jobs"},

		// A key the clause's kind does not use would vanish from the hash.
		{"level on constant budget", "scenario x\nbudget constant lo=0.5\n", "lo=0.5"},
		{"cv on poisson", "scenario x\nclient a {\narrival poisson cv=3\n}\n", "cv=3"},
		{"events without over", "scenario x\nclient a {\narrival constant events=9\n}\n", "events=9"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src))
			if err == nil {
				t.Fatalf("Parse accepted %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// canonicalSources is every spec whose canonical form is pinned: the
// embedded library, the benchmark's specs and goldenInput.
func canonicalSources(tb testing.TB) (names []string, srcs [][]byte) {
	tb.Helper()
	for _, n := range specs.Names() {
		src, err := specs.Source(n)
		if err != nil {
			tb.Fatal(err)
		}
		names, srcs = append(names, n+".spec"), append(srcs, src)
	}
	bench, err := filepath.Glob("../../bench/specs/*.spec")
	if err != nil || len(bench) == 0 {
		tb.Fatalf("bench specs: %v (%d found)", err, len(bench))
	}
	for _, f := range bench {
		src, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		names, srcs = append(names, filepath.Base(f)), append(srcs, src)
	}
	return append(names, "goldenInput"), append(srcs, []byte(goldenInput))
}

// TestCanonicalHashPinned pins each spec's Hash, the FNV-1a of its
// canonical form, as one table: arrival streams are keyed by it, so a
// moved hash reseeds every client and moves the reports built on the
// spec, and a spec added or removed moves the table.
func TestCanonicalHashPinned(t *testing.T) {
	got := map[string]uint64{}
	names, srcs := canonicalSources(t)
	for i, name := range names {
		s, err := Parse(srcs[i])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = Hash(s)
	}
	pin.Table(t, "canonical-hash", got)
}

func TestHashDistinguishesSpecs(t *testing.T) {
	a, err := Parse([]byte("scenario a\nservice xapian\n"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse([]byte("scenario a\nservice xapian\nload 0.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if Hash(a) == Hash(b) {
		t.Errorf("distinct specs share hash %#x", Hash(a))
	}
}

func TestNumPreservesRationalForm(t *testing.T) {
	n, err := parseNum("1/3")
	if err != nil {
		t.Fatal(err)
	}
	base := 1.2
	if got, want := n.scale(base), base*1/3.0; got != want {
		t.Errorf("scale(%v) = %v, want the legacy base*1/3 order %v", base, got, want)
	}
	if n.String() != "1/3" {
		t.Errorf("String() = %q, want 1/3", n.String())
	}
	plain, err := parseNum("0.7")
	if err != nil {
		t.Fatal(err)
	}
	if plain.scale(2) != 2*0.7 || plain.String() != "0.7" {
		t.Errorf("plain num mishandled: %v %q", plain.scale(2), plain.String())
	}
	// The unset zero value must resolve to exactly 0, never 0/0 = NaN:
	// compiled configs call Value() on optional fields and a NaN would
	// silently defeat every threshold comparison downstream.
	var unset Num
	if v := unset.Value(); v != 0 {
		t.Errorf("zero Num Value() = %v, want 0", v)
	}
	if v := unset.scale(3); v != 0 {
		t.Errorf("zero Num scale(3) = %v, want 0", v)
	}
}

package config

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestCoreIndexRoundTrip(t *testing.T) {
	for i := 0; i < NumCoreConfigs; i++ {
		c := CoreByIndex(i)
		if !c.Valid() {
			t.Fatalf("CoreByIndex(%d) = %v invalid", i, c)
		}
		if c.Index() != i {
			t.Fatalf("round trip failed: index %d -> %v -> %d", i, c, c.Index())
		}
	}
}

func TestCoreIndexEndpoints(t *testing.T) {
	if Narrowest.Index() != 0 {
		t.Errorf("{2,2,2} index = %d, want 0", Narrowest.Index())
	}
	if Widest.Index() != NumCoreConfigs-1 {
		t.Errorf("{6,6,6} index = %d, want %d", Widest.Index(), NumCoreConfigs-1)
	}
}

func TestCoreByIndexPanics(t *testing.T) {
	for _, idx := range []int{-1, NumCoreConfigs} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CoreByIndex(%d) did not panic", idx)
				}
			}()
			CoreByIndex(idx)
		}()
	}
}

func TestAllCoresDistinct(t *testing.T) {
	cores := AllCores()
	if len(cores) != 27 {
		t.Fatalf("AllCores returned %d configs", len(cores))
	}
	seen := make(map[Core]bool)
	for _, c := range cores {
		if seen[c] {
			t.Fatalf("duplicate core config %v", c)
		}
		seen[c] = true
	}
}

func TestCoreString(t *testing.T) {
	c := Core{FE: W6, BE: W2, LS: W4}
	if got := c.String(); got != "{6,2,4}" {
		t.Errorf("String = %q, want {6,2,4}", got)
	}
	// The table serves exactly the formatted names, and an invalid core
	// is still formatted rather than indexed.
	for _, c := range append(AllCores(), Core{}, Core{FE: W6, BE: 3, LS: W2}) {
		want := fmt.Sprintf("{%d,%d,%d}", int(c.FE), int(c.BE), int(c.LS))
		if got := c.String(); got != want {
			t.Errorf("%#v.String() = %q, want %q", c, got, want)
		}
	}
	if n := testing.AllocsPerRun(10, func() { _ = Widest.String() }); n != 0 {
		t.Errorf("valid Core.String allocates %v times", n)
	}
}

func TestWidthScale(t *testing.T) {
	if W6.Scale() != 1.0 || W2.Scale() != 1.0/3 || W4.Scale() != 2.0/3 {
		t.Fatal("Width.Scale wrong")
	}
}

func TestStructureScaling(t *testing.T) {
	// Table I: 144-entry ROB, 48-entry LQ/SQ at full width.
	if ROBSize(W6) != 144 || ROBSize(W2) != 48 || ROBSize(W4) != 96 {
		t.Errorf("ROB sizes: %d %d %d", ROBSize(W6), ROBSize(W4), ROBSize(W2))
	}
	if LSQSize(W6) != 48 || LSQSize(W4) != 32 {
		t.Errorf("LSQ sizes: %d %d", LSQSize(W6), LSQSize(W4))
	}
}

func TestTableIParameters(t *testing.T) {
	// Pin the Table I constants the rest of the system depends on.
	if LLCWays != 32 || NumMachineCore != 32 {
		t.Fatal("LLC ways / core count deviate from Table I")
	}
	if DRAMLatency != 200 || L2Latency != 20 {
		t.Fatal("memory latencies deviate from Table I")
	}
	if BaseFreqGHz != 4.0 || TechnologyNm != 22 {
		t.Fatal("frequency/technology deviate from Table I")
	}
}

func TestReconfigPenalties(t *testing.T) {
	// §VII: 1.67% frequency, 18% energy, 19% area penalties from AnyCore.
	if ReconfigFreqPenalty != 0.0167 || ReconfigEnergyPenalty != 0.18 || ReconfigAreaPenalty != 0.19 {
		t.Fatal("AnyCore penalties deviate from the paper")
	}
	want := 4.0 * (1 - 0.0167)
	if got := ReconfigFreqGHz(); got != want {
		t.Fatalf("ReconfigFreqGHz = %v, want %v", got, want)
	}
}

func TestResourceIndexRoundTrip(t *testing.T) {
	for i := 0; i < NumResources; i++ {
		r := ResourceByIndex(i)
		if r.Index() != i {
			t.Fatalf("resource round trip failed at %d: %v -> %d", i, r, r.Index())
		}
	}
}

func TestResourceIndexProperty(t *testing.T) {
	if err := quick.Check(func(ci, ai uint8) bool {
		c := CoreByIndex(int(ci) % NumCoreConfigs)
		a := CacheAllocs[int(ai)%NumCacheAllocs]
		r := Resource{Core: c, Cache: a}
		back := ResourceByIndex(r.Index())
		return back == r
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNumResources(t *testing.T) {
	// §VIII-A3: #confs = 108.
	if NumResources != 108 {
		t.Fatalf("NumResources = %d, want 108", NumResources)
	}
	if len(AllResources()) != 108 {
		t.Fatal("AllResources length wrong")
	}
}

func TestCacheAllocIndex(t *testing.T) {
	for i, a := range CacheAllocs {
		if a.Index() != i {
			t.Fatalf("CacheAlloc %v index = %d, want %d", a, a.Index(), i)
		}
	}
	if CacheAlloc(3).Index() != -1 {
		t.Fatal("invalid alloc should index to -1")
	}
}

func TestResourceString(t *testing.T) {
	r := Resource{Core: Core{FE: W6, BE: W2, LS: W4}, Cache: TwoWays}
	if got := r.String(); got != "{6,2,4}/2w" {
		t.Errorf("Resource.String = %q", got)
	}
	h := Resource{Core: Narrowest, Cache: HalfWay}
	if got := h.String(); got != "{2,2,2}/0.5w" {
		t.Errorf("Resource.String = %q", got)
	}
}

func TestSectionString(t *testing.T) {
	if FrontEnd.String() != "FE" || BackEnd.String() != "BE" || LoadStore.String() != "LS" {
		t.Fatal("Section.String wrong")
	}
}

func TestInvalidResourceIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ResourceByIndex(108) did not panic")
		}
	}()
	ResourceByIndex(NumResources)
}

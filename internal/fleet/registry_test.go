package fleet

import (
	"strings"
	"testing"
)

// TestRouterByName pins the registry roster to the routers' own
// reported names, and requires stateful routers to come out fresh:
// two compiled scenarios resolving "qos-aware" must never share
// weight state.
func TestRouterByName(t *testing.T) {
	for _, name := range []string{"uniform", "least-loaded", "qos-aware"} {
		r, err := RouterByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := r.Name(); got != name {
			t.Errorf("RouterByName(%q).Name() = %q", name, got)
		}
	}
	a, err := RouterByName("qos-aware")
	if err != nil {
		t.Fatal(err)
	}
	b, err := RouterByName("qos-aware")
	if err != nil {
		t.Fatal(err)
	}
	if a.(*QoSAware) == b.(*QoSAware) {
		t.Error("qos-aware resolved to a shared instance; weight state would leak across runs")
	}
	if _, err := RouterByName("round-robin"); err == nil || !strings.Contains(err.Error(), "round-robin") {
		t.Errorf("unknown router error %v does not name the input", err)
	}
}

// TestArbiterByName mirrors the router check for the budget arbiters.
func TestArbiterByName(t *testing.T) {
	for _, name := range []string{"proportional", "headroom"} {
		a, err := ArbiterByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := a.Name(); got != name {
			t.Errorf("ArbiterByName(%q).Name() = %q", name, got)
		}
	}
	for _, name := range []string{"auction", "equal"} {
		if _, err := ArbiterByName(name); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("unknown arbiter %q: error %v does not name the input", name, err)
		}
	}
}

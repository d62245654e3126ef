package fleet_test

import (
	"encoding/json"
	"math"
	"slices"
	"testing"

	"cuttlesys/internal/fleet"
)

// churnJSON runs a fixed membership-churn script — join mid-run, evict
// mid-run — and returns the marshalled result.
func churnJSON(t *testing.T, workers int) []byte {
	t.Helper()
	specs := testSpecs(t, 4, nil)
	f, err := fleet.New(fleet.Config{Router: fleet.LeastLoaded{}, Arbiter: fleet.Headroom{}, Workers: workers},
		specs[:3]...)
	if err != nil {
		t.Fatal(err)
	}
	step := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := f.Step(0.5*f.CapacityQPS(), 0.7*f.RefPowerW()); err != nil {
				t.Fatal(err)
			}
		}
	}
	step(2)
	if id, err := f.Attach(specs[3]); err != nil || id != 3 {
		t.Fatalf("attach: id %d, err %v", id, err)
	}
	step(2)
	if err := f.Evict(1); err != nil {
		t.Fatal(err)
	}
	step(2)
	buf, err := json.Marshal(f.Result())
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestMembershipChurn exercises join and evict mid-run: the stepping
// set, capacity, per-slice Members and per-node histories must all
// track membership, and the joining machine must share the fleet
// clock.
func TestMembershipChurn(t *testing.T) {
	specs := testSpecs(t, 4, nil)
	f, err := fleet.New(fleet.Config{}, specs[:3]...)
	if err != nil {
		t.Fatal(err)
	}
	capBefore := f.CapacityQPS()
	run := func(n int) []fleet.SliceRecord {
		t.Helper()
		var out []fleet.SliceRecord
		for i := 0; i < n; i++ {
			rec, err := f.Step(0.5*f.CapacityQPS(), 0.7*f.RefPowerW())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, rec)
		}
		return out
	}
	pre := run(2)
	if got := pre[1].Members; len(got) != 3 {
		t.Fatalf("pre-churn members %v", got)
	}

	// Join: the new machine fast-forwards to the fleet clock and serves
	// from the next slice.
	id, err := f.Attach(specs[3])
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 || f.Size() != 4 || f.Slots() != 4 {
		t.Fatalf("attach id %d size %d slots %d", id, f.Size(), f.Slots())
	}
	if got := specs[3].Machine.Now(); math.Abs(got-f.Now()) > 1e-12 {
		t.Fatalf("joined machine clock %v, fleet clock %v", got, f.Now())
	}
	if f.CapacityQPS() <= capBefore {
		t.Fatal("capacity did not grow on join")
	}
	mid := run(2)
	if got := mid[0].Members; len(got) != 4 || got[3] != 3 {
		t.Fatalf("post-join members %v", got)
	}
	if mid[0].NodeQPS[3] <= 0 {
		t.Fatalf("joined machine got no traffic: %v", mid[0].NodeQPS)
	}
	if math.Abs(mid[0].T-specRecordT(t, f, 3, 0)) > 1e-12 {
		t.Fatal("joined machine's first slice not on the fleet timeline")
	}

	// Evict: the machine leaves the stepping set but keeps its history.
	if err := f.Evict(1); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(f.Active(), 1) || f.Size() != 3 || f.Slots() != 4 {
		t.Fatalf("evict bookkeeping: active %v size %d slots %d", f.Active(), f.Size(), f.Slots())
	}
	post := run(2)
	if got := post[0].Members; len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("post-evict members %v", got)
	}
	res := f.Result()
	if len(res.Nodes) != 4 {
		t.Fatalf("%d node histories", len(res.Nodes))
	}
	if got := len(res.Nodes[1].Slices); got != 4 {
		t.Fatalf("evicted machine has %d slice records, want 4", got)
	}
	if got := len(res.Nodes[3].Slices); got != 4 {
		t.Fatalf("joined machine has %d slice records, want 4", got)
	}

	// Error paths.
	if err := f.Evict(1); err == nil {
		t.Error("double evict accepted")
	}
	if err := f.Evict(99); err == nil {
		t.Error("unknown machine evicted")
	}
	for _, rem := range []int{0, 2, 3} {
		if err := f.Evict(rem); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Step(100, 100); err == nil {
		t.Error("empty fleet stepped")
	}
}

// specRecordT digs machine id's slice-record start time out of the
// fleet result.
func specRecordT(t *testing.T, f *fleet.Fleet, id, slice int) float64 {
	t.Helper()
	res := f.Result()
	if id >= len(res.Nodes) || slice >= len(res.Nodes[id].Slices) {
		t.Fatalf("no record for machine %d slice %d", id, slice)
	}
	return res.Nodes[id].Slices[slice].T
}

// TestMembershipChurnDeterministic extends the fleet's determinism
// contract to membership churn: a join plus an evict mid-run must
// produce byte-identical results under serial and parallel stepping.
func TestMembershipChurnDeterministic(t *testing.T) {
	serial := churnJSON(t, 1)
	parallel := churnJSON(t, 8)
	if string(serial) != string(parallel) {
		t.Fatal("membership churn result depends on stepping parallelism")
	}
}

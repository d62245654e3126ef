package experiments

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"testing"
)

// digest folds v into h: every float by its math.Float64bits, every
// integer and bool by value, every string by its bytes, slices, arrays
// and struct fields in order, maps in sorted key order.
func digest(h hash.Hash64, v reflect.Value) {
	var b [8]byte
	put := func(x uint64) {
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		put(v.Uint())
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.String:
		put(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Slice, reflect.Array:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			digest(h, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			digest(h, v.Field(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		put(uint64(len(keys)))
		for _, k := range keys {
			digest(h, k)
			digest(h, v.MapIndex(k))
		}
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			digest(h, v.Elem())
		}
	default:
		panic("digest: unhandled kind " + v.Kind().String())
	}
}

// digestOf is the FNV-1a digest of every value vs holds.
func digestOf(vs ...any) uint64 {
	h := fnv.New64a()
	for _, v := range vs {
		digest(h, reflect.ValueOf(v))
	}
	return h.Sum64()
}

// digestSetup is the smoke scale of the digest pins: one service, one
// mix, six slices, every other field at its default.
func digestSetup() Setup {
	return Setup{Seed: 1, Services: []string{"xapian"}, MixesPerService: 1, Slices: 6}
}

// TestExperimentDigests pins, at smoke scale, a full-precision digest
// of everything each deterministic experiment returns. Table II is left
// out: it reports host wall time. A refactor that claims bit identity
// must leave every literal as it is; a change that moves results must
// say which rows moved and why.
func TestExperimentDigests(t *testing.T) {
	cases := []struct {
		name string
		want uint64
		run  func() ([]any, error)
	}{
		{"fig1", 0x2a4721ed572bcc01, func() ([]any, error) {
			rows := Fig1(nil, 1, 0)
			return []any{rows, BestTradeoff(rows, 0.8)}, nil
		}},
		{"trainsweep", 0x124b929af7b5ddab, func() ([]any, error) {
			return []any{TrainingSetSweep()}, nil
		}},
		{"fig5a", 0x35ebf3e84eb072cb, func() ([]any, error) {
			return []any{Fig5aIsolation(1)}, nil
		}},
		{"fig5b", 0xb414e5da2e95088a, func() ([]any, error) {
			rows, err := Fig5bColocation(digestSetup())
			return []any{rows}, err
		}},
		{"fig5c", 0xe69052b0363618a6, func() ([]any, error) {
			rows, err := Fig5cPowerCapSweep(digestSetup())
			return []any{rows}, err
		}},
		{"fig7", 0x092eff3e149b307b, func() ([]any, error) {
			rows, err := Fig7InstrPerSlice(2)
			return []any{rows}, err
		}},
		{"fig8a", 0xad0722330b98f876, func() ([]any, error) {
			recs, err := Dynamics(ScenarioVaryingLoad, 3, 6)
			return []any{recs}, err
		}},
		{"fig8b", 0x9a71f44ceee730ac, func() ([]any, error) {
			recs, err := Dynamics(ScenarioVaryingBudget, 3, 6)
			return []any{recs}, err
		}},
		{"fig8c", 0xac7e7d971a9052a0, func() ([]any, error) {
			recs, err := Dynamics(ScenarioRelocation, 3, 6)
			return []any{recs}, err
		}},
		{"flicker", 0x694e62028896d4c3, func() ([]any, error) {
			rows, err := FlickerQoSComparison(digestSetup())
			return []any{rows}, err
		}},
		{"fig9", 0x0f89296c76cb5056, func() ([]any, error) {
			return []any{Fig9RBFvsSGD(1)}, nil
		}},
		{"fig10a", 0x2aab26d3dfc73312, func() ([]any, error) {
			points, budget := Fig10aExploration(6, 0.7)
			return []any{points, budget}, nil
		}},
		{"fig10b", 0xa4a10583f4b0ec96, func() ([]any, error) {
			rows, err := Fig10bDDSvsGA(digestSetup())
			return []any{rows}, err
		}},
		{"ablation", 0xc0ded752745179cd, func() ([]any, error) {
			rows, err := Ablation(digestSetup())
			return []any{rows}, err
		}},
		{"proportionality", 0x7e3ec2c3e39d2172, func() ([]any, error) {
			rows, err := EnergyProportionality(1)
			return []any{rows, DynamicRange(rows, "fixed"), DynamicRange(rows, "cuttlesys")}, err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			vs, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if got := digestOf(vs...); got != c.want {
				t.Errorf("digest %#016x, pinned %#016x", got, c.want)
			}
		})
	}
}

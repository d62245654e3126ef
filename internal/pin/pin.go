// Package pin holds the module's pinned bits; only tests import it. A
// pin is an FNV-1a digest (Hash) stored by name in the testdata/pins.json
// beside its test, and a golden file holds bytes. The one -update flag
// rewrites both from the run, and `make regen` runs every pinning
// package with it (DESIGN.md §5).
package pin

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/pins.json and the golden files from this run (make regen)")

// Hash is an FNV-1a digest of what is folded into it, in order: bytes
// as they are (Write), an integer as eight little-endian bytes, a float
// as its Float64bits.
type Hash struct {
	hash.Hash64
	b [8]byte
}

// New returns an empty digest.
func New() *Hash { return &Hash{Hash64: fnv.New64a()} }

// Uint64 folds each x.
func (h *Hash) Uint64(xs ...uint64) {
	for _, x := range xs {
		h.Write(binary.LittleEndian.AppendUint64(h.b[:0], x))
	}
}

// Floats folds each x, with no length.
func (h *Hash) Floats(xs ...float64) {
	for _, x := range xs {
		h.Uint64(math.Float64bits(x))
	}
}

// Value folds each v: a bool as 0 or 1; a string, slice, array or map
// as its length, then its contents (map entries in sorted key order);
// struct fields in order; what a non-nil pointer or interface holds.
func (h *Hash) Value(vs ...any) {
	for _, v := range vs {
		h.walk(reflect.ValueOf(v))
	}
}

func (h *Hash) walk(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		h.Floats(v.Float())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		h.Uint64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		h.Uint64(v.Uint())
	case reflect.Bool:
		if v.Bool() {
			h.Uint64(1)
		} else {
			h.Uint64(0)
		}
	case reflect.String:
		h.Uint64(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Slice, reflect.Array:
		h.Uint64(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			h.walk(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			h.walk(v.Field(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		h.Uint64(uint64(len(keys)))
		for _, k := range keys {
			h.walk(k)
			h.walk(v.MapIndex(k))
		}
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			h.walk(v.Elem())
		}
	default:
		panic("pin: cannot digest a " + v.Kind().String())
	}
}

// Check fails t unless got is the value pinned as name; under -update
// it records got instead. Either way a name checked twice in one run
// must get one value: the lane paths and GOMAXPROCS settings that share
// a pin are held to one set of bits.
func Check(t testing.TB, name string, got uint64) {
	t.Helper()
	pins.check(t, name, hex(got), false)
}

// Table is Check for digests by key, pinned as one entry: a key added
// or removed moves it as a changed digest does, and a move names each
// such key.
func Table(t testing.TB, name string, got map[string]uint64) {
	t.Helper()
	m := map[string]any{}
	for k, v := range got {
		m[k] = hex(v)
	}
	pins.check(t, name, m, false)
}

// Canary skips t unless got is the canary pinned as name: the pins that
// follow were recorded on a host whose math library gives it, and why
// names what differs. -update never writes a canary, and make regen
// fails on this skip's "differ from the recording host".
func Canary(t testing.TB, name string, got uint64, why string) {
	t.Helper()
	if want, ok := pins.check(t, name, hex(got), true); !ok {
		t.Skipf("%s differ from the recording host (canary %#x, recorded %v): ROADMAP item 19", why, got, want)
	}
}

// Golden fails t unless got is the content of testdata/name; under
// -update it writes the file instead.
func Golden(t testing.TB, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	switch {
	case *update:
		err = os.WriteFile(path, got, 0o644)
	case err == nil && !bytes.Equal(got, want):
		t.Errorf("%s drifted from its golden file:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
	if err != nil {
		t.Errorf("%v (make regen writes it)", err)
	}
}

func hex(v uint64) string { return fmt.Sprintf("0x%016x", v) }

// A ledger is one pins.json and what this run has checked against it.
type ledger struct {
	path   string
	update *bool
	mu     sync.Mutex
	pins   map[string]any // "0x…", or a table of them by key
	seen   map[string]any
}

var pins = &ledger{path: filepath.Join("testdata", "pins.json"), update: update}

// check compares got with the pin name, or records it under -update (a
// canary never); it returns the pin and whether got is it.
func (l *ledger) check(t testing.TB, name string, got any, canary bool) (any, bool) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.seen[name]; ok && !reflect.DeepEqual(got, prev) {
		t.Errorf("pin %q checked twice in one run: %v, then %v", name, prev, got)
		return prev, false
	}
	if l.pins == nil {
		pins := map[string]any{}
		b, err := os.ReadFile(l.path)
		if err == nil {
			err = json.Unmarshal(b, &pins)
		}
		if err != nil && !os.IsNotExist(err) {
			t.Errorf("pin %q: %v", name, err)
			return nil, false
		}
		l.pins, l.seen = pins, map[string]any{}
	}
	l.seen[name] = got
	want, ok := l.pins[name]
	if *l.update && !canary {
		l.pins[name], want, ok = got, got, true
		b, err := json.MarshalIndent(l.pins, "", "  ")
		if err == nil {
			err = os.WriteFile(l.path, append(b, '\n'), 0o644)
		}
		if err != nil {
			t.Error(err)
		}
	}
	switch {
	case !ok && canary:
		t.Errorf("canary %q: no entry in %s; a canary is recorded by hand", name, l.path)
	case !ok:
		t.Errorf("pin %q: no entry in %s; run make regen", name, l.path)
	case !reflect.DeepEqual(got, want) && !canary:
		t.Errorf("pin %q moved: %s (make regen records a move made on purpose)", name, moved(got, want))
	}
	return want, ok && reflect.DeepEqual(got, want)
}

// moved says how got differs from the pin want: for a table, each key
// added, removed or moved, with its got and pinned values; otherwise
// the two values.
func moved(got, want any) string {
	g, ok := got.(map[string]any)
	w, okw := want.(map[string]any)
	if !ok || !okw {
		return fmt.Sprintf("%v, pinned %v", got, want)
	}
	var keys []string
	for k := range g {
		keys = append(keys, k)
	}
	for k := range w {
		if _, ok := g[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var diffs []string
	for _, k := range keys {
		gv, inG := g[k]
		wv, inW := w[k]
		switch {
		case !inW:
			diffs = append(diffs, fmt.Sprintf("%s added: %v", k, gv))
		case !inG:
			diffs = append(diffs, fmt.Sprintf("%s removed: pinned %v", k, wv))
		case !reflect.DeepEqual(gv, wv):
			diffs = append(diffs, fmt.Sprintf("%s: %v, pinned %v", k, gv, wv))
		}
	}
	return strings.Join(diffs, "; ")
}

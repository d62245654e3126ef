package scenario

import (
	"strings"
	"testing"
)

const sampleTrace = `# recorded front-end traffic
timestamp,client,qps
0.0,web,100
0.0,api,40
0.5,web,200
1.0,web,50
2.0,api,80
`

func TestParseTraceSortsAndSkipsHeader(t *testing.T) {
	rows, err := ParseTrace([]byte(sampleTrace))
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].T < rows[i-1].T {
			t.Fatalf("rows not sorted: %v", rows)
		}
	}
	// Stable sort keeps the file order of equal timestamps.
	if rows[0].Client != "web" || rows[1].Client != "api" {
		t.Errorf("equal-timestamp order not stable: %v %v", rows[0], rows[1])
	}
}

// The resampling rule is time-weighted averaging of the
// last-value-hold step function, so the expected per-quantum means are
// computable by hand.
func TestResampleTraceExactValues(t *testing.T) {
	rows, err := ParseTrace([]byte(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	got, err := resampleTrace(rows, "web", 3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// web is 100 on [-inf, 0.5), 200 on [0.5, 1.0), 50 after.
	want := []float64{
		(100*0.5 + 200*0.5) / 1.0, // quantum [0,1): 150
		50,                        // quantum [1,2)
		50,                        // quantum [2,3): held final rate
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("quantum %d = %v, want %v", i, got[i], want[i])
		}
	}
	// The first rate holds backwards: a grid starting before the first
	// timestamp sees it.
	apiRows, err := resampleTrace(rows, "api", 2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if apiRows[0] != 40 {
		t.Errorf("api quantum 0 = %v, want the held first rate 40", apiRows[0])
	}
}

func TestResampleTraceUnknownClient(t *testing.T) {
	rows, err := ParseTrace([]byte(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	_, err = resampleTrace(rows, "mobile", 2, 1.0)
	if err == nil {
		t.Fatal("unknown client accepted")
	}
	if !strings.Contains(err.Error(), "web") || !strings.Contains(err.Error(), "api") {
		t.Errorf("error %q does not list the available clients", err)
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"empty", "timestamp,client,qps\n"},
		{"negative qps", "0,web,-1\n"},
		{"negative time", "-2,web,10\n"},
		{"bad qps", "0,web,fast\n1,web,10\n"},
		{"empty client", "0,,10\n"},
		{"wrong arity", "0,web\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseTrace([]byte(tc.src)); err == nil {
				t.Errorf("accepted %q", tc.src)
			}
		})
	}
}

func TestTracePeak(t *testing.T) {
	rows, err := ParseTrace([]byte(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	if p := tracePeak(rows, "web"); p != 200 {
		t.Errorf("web peak = %v, want 200", p)
	}
	if p := tracePeak(rows, "api"); p != 80 {
		t.Errorf("api peak = %v, want 80", p)
	}
}

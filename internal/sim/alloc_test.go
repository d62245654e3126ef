package sim

import (
	"strings"
	"testing"

	"cuttlesys/internal/config"
)

// TestAllocationValidateTable exercises Validate's edge cases beyond
// the happy paths sim_test.go covers: degenerate machines (no batch
// jobs, LC-only), over-subscribed cache budgets, and negative or
// inconsistent core counts.
func TestAllocationValidateTable(t *testing.T) {
	batch := func(n int, cache config.CacheAlloc) []BatchAssign {
		b := make([]BatchAssign, n)
		for i := range b {
			b[i] = BatchAssign{Core: config.Widest, Cache: cache}
		}
		return b
	}
	cases := []struct {
		name    string
		alloc   Allocation
		nBatch  int
		hasLC   bool
		nCores  int
		wantErr string // substring; empty = valid
	}{
		{
			name:   "lc-only machine, zero batch jobs",
			alloc:  Allocation{LCCores: 32, LCCore: config.Widest, LCCache: config.FourWays},
			nBatch: 0, hasLC: true, nCores: 32,
		},
		{
			name:   "batch-only machine",
			alloc:  Allocation{Batch: batch(16, config.OneWay)},
			nBatch: 16, hasLC: false, nCores: 32,
		},
		{
			name:   "batch assignment count mismatch",
			alloc:  Allocation{Batch: batch(4, config.OneWay)},
			nBatch: 16, hasLC: false, nCores: 32,
			wantErr: "batch assignments",
		},
		{
			name:   "zero LC cores with service present",
			alloc:  Allocation{LCCores: 0, LCCore: config.Widest, LCCache: config.FourWays},
			nBatch: 0, hasLC: true, nCores: 32,
			wantErr: "allocated 0 cores",
		},
		{
			name:   "negative LC cores with service present",
			alloc:  Allocation{LCCores: -4, LCCore: config.Widest, LCCache: config.FourWays},
			nBatch: 0, hasLC: true, nCores: 32,
			wantErr: "allocated -4 cores",
		},
		{
			name:   "LC cores on a batch-only machine",
			alloc:  Allocation{LCCores: 8, Batch: batch(16, config.OneWay)},
			nBatch: 16, hasLC: false, nCores: 32,
			wantErr: "no LC service",
		},
		{
			name: "LC cores exceed machine",
			alloc: Allocation{LCCores: 40, LCCore: config.Widest,
				LCCache: config.FourWays},
			nBatch: 0, hasLC: true, nCores: 32,
			wantErr: "exceed",
		},
		{
			name: "extra services push total over machine",
			alloc: Allocation{
				LCCores: 16, LCCore: config.Widest, LCCache: config.FourWays,
				ExtraLC: []LCAssign{{Cores: 20, Core: config.Widest, Cache: config.FourWays}},
			},
			nBatch: 0, hasLC: true, nCores: 32,
			wantErr: "exceed",
		},
		{
			name: "negative extra service cores",
			alloc: Allocation{
				LCCores: 16, LCCore: config.Widest, LCCache: config.FourWays,
				ExtraLC: []LCAssign{{Cores: -1, Core: config.Widest, Cache: config.FourWays}},
			},
			nBatch: 0, hasLC: true, nCores: 32,
			wantErr: "extra service 0",
		},
		{
			name:   "over-subscribed cache ways",
			alloc:  Allocation{Batch: batch(16, config.FourWays)}, // 64 ways on a 32-way LLC
			nBatch: 16, hasLC: false, nCores: 32,
			wantErr: "ways",
		},
		{
			name: "over-subscription forgiven without partitioning",
			alloc: Allocation{Batch: batch(16, config.FourWays),
				NoPartition: true},
			nBatch: 16, hasLC: false, nCores: 32,
		},
		{
			name: "gated jobs do not count toward the way budget",
			alloc: func() Allocation {
				a := Allocation{Batch: batch(16, config.FourWays)}
				for i := 8; i < 16; i++ {
					a.Batch[i].Gated = true
				}
				return a
			}(),
			nBatch: 16, hasLC: false, nCores: 32,
		},
		{
			name: "zero batch cache allocation",
			alloc: func() Allocation {
				a := Allocation{Batch: batch(16, config.OneWay)}
				a.Batch[3].Cache = 0
				return a
			}(),
			nBatch: 16, hasLC: false, nCores: 32,
			wantErr: "batch job 3",
		},
		{
			name: "negative batch frequency",
			alloc: func() Allocation {
				a := Allocation{Batch: batch(16, config.OneWay)}
				a.Batch[0].FreqGHz = -1
				return a
			}(),
			nBatch: 16, hasLC: false, nCores: 32,
			wantErr: "frequency",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.alloc.Validate(tc.nBatch, tc.hasLC, tc.nCores)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestBatchCoresAndMultiplexDegenerate pins the helper arithmetic on
// degenerate inputs the quarantine and fallback paths can produce.
func TestBatchCoresAndMultiplexDegenerate(t *testing.T) {
	a := Allocation{LCCores: 40, Batch: make([]BatchAssign, 4)}
	if got := a.batchCores(32); got != -8 {
		t.Fatalf("batchCores = %d, want -8", got)
	}
	if got := a.MultiplexFactor(32); got != 0 {
		t.Fatalf("MultiplexFactor with negative cores = %v, want 0", got)
	}
	all := Allocation{Batch: []BatchAssign{{Gated: true}, {Gated: true}}}
	if got := all.MultiplexFactor(32); got != 0 {
		t.Fatalf("MultiplexFactor with all gated = %v, want 0", got)
	}
}

GO ?= go

.PHONY: build test race vet bench chaos fleet ops trace bench-obs scenario bench-scenario warmstart bench-warmstart bench-all perf-check race-hot lint lint-json fmt ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Check the wall-clock benchmark's plumbing on every PR: a smoke run of
# all four workloads (ops_failed == 0, traced digest == untraced, span
# shares close) and the bench package's own tests (step.self_share,
# digest and seed-determinism assertions). Measures nothing; see
# bench/README.md for the measuring run.
perf-check:
	$(GO) run ./bench -smoke
	$(GO) test ./bench

# Run the repository-invariant analyzer suite (see DESIGN.md §7).
lint:
	$(GO) run ./cmd/cuttlelint ./...

# Emit every finding — waived ones included, marked allowed — as a
# sorted deterministic JSON array (cuttlelint.json). CI uploads this
# as an artifact when the lint step fails.
lint-json:
	$(GO) run ./cmd/cuttlelint -json ./... > cuttlelint.json

# Fail if any file is not gofmt-formatted.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Everything CI runs, in order.
ci: build vet fmt test race lint

# Regenerate the seeded resilience report (see EXPERIMENTS.md).
chaos:
	$(GO) run ./cmd/chaos -seed 1 -slices 30 -o BENCH_resilience.json

# Regenerate the seeded cluster fleet report (see EXPERIMENTS.md).
fleet:
	$(GO) run ./cmd/fleet -seed 1 -machines 4 -slices 12 -o BENCH_fleet.json

# Regenerate the seeded control-plane drill report (DESIGN.md §12,
# EXPERIMENTS.md): failover, brownout and capacity-surge drills with
# the full membership and transition logs.
ops:
	$(GO) run ./cmd/ops -seed 7 -machines 4 -slices 30 -o BENCH_ops.json

# Capture the reference traced chaos run (DESIGN.md §10): trace JSONL,
# Chrome trace_event JSON (load trace/trace.chrome.json in
# chrome://tracing), a Prometheus metric snapshot, and the summary,
# then summarise the trace with cmd/trace.
trace:
	mkdir -p trace
	$(GO) run ./cmd/fleet -seed 1 -machines 3 -slices 10 -load 0.7 -cap 0.65 \
		-trace trace/trace.jsonl -chrome trace/trace.chrome.json \
		-prom trace/metrics.prom -o trace/summary.json
	$(GO) run ./cmd/trace trace/trace.jsonl

# Validate the declarative scenario library (DESIGN.md §13): every
# spec must parse, round-trip through the canonical form and compile
# self-contained.
scenario:
	$(GO) run ./cmd/scenario -validate

# Regenerate the seeded scenario benchmark report (EXPERIMENTS.md):
# the library scenarios not already pinned by the fleet/ops reports.
bench-scenario:
	$(GO) run ./cmd/scenario -seed 1 -o BENCH_scenario.json

# Run the model-sharing warm-start sweep to stdout (DESIGN.md §14):
# cold vs warm successors across staleness settings and fleet sizes.
warmstart:
	$(GO) run ./cmd/warmstart -seed 7

# Regenerate the seeded warm-start reference report (EXPERIMENTS.md).
bench-warmstart:
	$(GO) run ./cmd/warmstart -seed 7 -o BENCH_warmstart.json

# Regenerate the seeded trace-summary regression artifact.
bench-obs:
	$(GO) run ./cmd/fleet -seed 1 -machines 3 -slices 10 -load 0.7 -cap 0.65 \
		-trace /dev/null -o BENCH_obs.json

# Race-detect the hot-path packages — the code the fast plane touches
# — without paying for the full -race run; internal/sim covers the
# LCSurfaces fan-out (whose workers each run the internal/stats
# selection on their own buffer), the second line the single-flighted
# training-row cache above it.
race-hot:
	$(GO) test -race ./internal/stats/ ./internal/ucp/ ./internal/perf/ ./internal/qsim/ ./internal/sim/ ./internal/harness/ ./internal/fleet/
	$(GO) test -race ./internal/core/ -run TrainingRows

# Re-check every seeded BENCH_*.json byte-regression gate in one go:
# each reference report is regenerated in-process by its package's
# tests and byte-compared against the checked-in artifact.
bench-all:
	$(GO) test ./cmd/chaos/ ./cmd/fleet/ ./cmd/ops/ ./cmd/scenario/ \
		./cmd/warmstart/ ./experiments/

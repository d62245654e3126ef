GO ?= go

.PHONY: build test race vet bench reports regen trace scenario bench-all perf-check race-hot lint lint-json fmt reach gone ci

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
	$(GO) run ./cmd/cuttlesys lint ./...

# Emit every finding — waived ones included, marked allowed — as a
# sorted deterministic JSON array (lint.json). CI uploads this as an
# artifact when the lint step fails.
lint-json:
	$(GO) run ./cmd/cuttlesys lint -json ./... > lint.json

# Fail if any file is not gofmt-formatted.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; fi

# List the production functions no entry point enters and check the
# list against tools/reach.allow (DESIGN.md §7): a new unreached
# function fails, and so does an entry that is reached or gone
# (~100 s on 2 cores).
reach:
	sh tools/reach.sh

# Keep the names simplicity changes removed gone: one git grep per row
# of tools/gone.txt (pattern, paths, allowed lines, the PRs that
# removed the names).
gone:
	sh tools/gone.sh

# Everything CI runs, in order.
ci: build vet fmt test race lint gone reach

# Regenerate every seeded BENCH_*.json report from its reference
# parameters (the report registry in cmd/cuttlesys; EXPERIMENTS.md).
# On an unchanged tree this leaves `git status` clean.
REPORTS = resilience fleet obs ops scenario warmstart
reports:
	for r in $(REPORTS); do \
		$(GO) run ./cmd/cuttlesys report $$r -o BENCH_$$r.json || exit 1; \
	done

# Rewrite every pinned bit after a change that moves bits on purpose:
# the reports above, then each pinning package's testdata/pins.json
# and golden files (go test -update), then tools/smoke.digests from the
# default and noasm bench smoke builds, which must agree. Prints
# `git diff HEAD --stat` and the moved pins; on an unchanged tree
# `git status` stays clean. CI never runs it (DESIGN.md §5).
regen: reports
	sh tools/regen.sh

# Capture the reference traced chaos run (DESIGN.md §10): trace JSONL,
# Chrome trace_event JSON (load trace/trace.chrome.json in
# chrome://tracing), a Prometheus metric snapshot, and the summary
# (BENCH_obs.json's bytes), then summarise the trace.
trace:
	mkdir -p trace
	$(GO) run ./cmd/cuttlesys report obs -trace trace/trace.jsonl \
		-chrome trace/trace.chrome.json -prom trace/metrics.prom -o trace/summary.json
	$(GO) run ./cmd/cuttlesys trace trace/trace.jsonl

# Validate the declarative scenario library (DESIGN.md §13): every
# spec must parse, round-trip through the canonical form and compile
# self-contained.
scenario:
	$(GO) run ./cmd/cuttlesys validate

# Race-detect the hot-path packages — the code the fast plane touches
# — without paying for the full -race run; internal/par covers the one
# fan-out primitive, and internal/sim, internal/sgd, internal/fleet and
# internal/dds its hot callers (the LCSurfaces configurations with a
# sojourn buffer per worker, the SGD lanes' prepare/finish and two-pair
# split, machine stepping, the search engine's worker batches),
# internal/harness the driver's reused sojourn buffers, the second line
# the single-flighted training-row cache above it.
race-hot:
	$(GO) test -race ./internal/par/ ./internal/stats/ ./internal/ucp/ ./internal/perf/ ./internal/qsim/ ./internal/sim/ ./internal/sgd/ ./internal/dds/ ./internal/harness/ ./internal/fleet/
	$(GO) test -race ./internal/core/ -run TrainingRows

# Re-check every seeded BENCH_*.json byte-regression gate in one go:
# each registry report is regenerated in-process at GOMAXPROCS 1 and 8
# and byte-compared against the checked-in artifact.
bench-all:
	$(GO) test ./cmd/cuttlesys/ -run 'ReferenceReportsUnchanged'

# Developer entry points. `make check` is the full pre-merge gate.

GO ?= go

.PHONY: all build vet lint lint-json test race chaos perfbench check bench clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# rankvet (cmd/rankvet, analyzers in internal/analysis) mechanically
# enforces the engine safety invariants: no raw panics, threaded contexts
# (struct stashes included), governed page reads, typed errors at the
# public boundary, guard lock discipline, closed scans, and unmixed
# atomics. -stats surfaces per-analyzer wall clock and the loader's
# export-data cache hit/miss counts, so a cache regression (stdlib
# re-type-checks creeping back) is visible in CI logs.
lint:
	$(GO) run ./cmd/rankvet -stats ./...

# Machine-readable findings: one JSON object per line on stdout
# (file/line/col/analyzer/message), for editors and CI annotators.
lint-json:
	$(GO) run ./cmd/rankvet -json ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Seeded, bounded serving-chaos run (internal/chaos) under the race
# detector: concurrent query storms + online maintenance + scripted
# corruption/repair, asserting typed outcomes, exact crosschecks, and
# half-open re-admission. Override the seed with CHAOS_SEED=… (the harness
# default is seed 1).
chaos:
	$(GO) test -race -count=1 -run 'TestChaos$$' ./internal/chaos -v

# perfbench is its own module (see perfbench/README.md), so ./... above
# never compiles it; vet and test it here so a change to the public API
# cannot break the benchmark unnoticed.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

check: build vet lint race chaos perfbench

# Quick smoke of the benchmark harness (full runs via cmd/rankbench).
bench:
	$(GO) run ./cmd/rankbench -exp fig3.4 -scale 0.02 -queries 3

clean:
	$(GO) clean ./...

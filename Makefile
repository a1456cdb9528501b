GO ?= go

.PHONY: all build test race bench report check lint

all: build test

build:
	$(GO) build ./...

# Tier-1 verification: everything must build and every test must pass.
test: build
	$(GO) test ./...

# rootlint: the in-tree analyzer suite (internal/lint) that mechanically
# enforces the repo's determinism, hot-path, and fault-injection invariants.
# Exits non-zero on any finding; see DESIGN.md section 10 for the rules and
# the //rootlint: annotation grammar.
lint:
	$(GO) run ./cmd/rootlint ./...

# Race coverage for the parallel campaign engine, the analyses it feeds,
# everything a checkpoint touches (dataset, flight log, segment container,
# sidecar writer, telemetry), the zone sidecar and the signing chain over it,
# the shared AS graph and its routing tables, and the DNS server. See
# scripts/race.sh.
race:
	sh scripts/race.sh

# Robustness gate: go vet, a short fuzz smoke over the dnswire codec, and
# the chaos matrix (failpoint kill/resume byte-identity, worker supervision,
# torn-tail recovery). See scripts/check.sh.
check:
	sh scripts/check.sh

# The repo's one benchmark: fixed serve, campaign and replay workloads against
# the shipping binaries, repeated runs with spread, results in
# bench/out/results.json (see bench/README.md and BENCHMARK.json). The
# per-table microbenchmarks in bench_test.go run with `go test -bench .`.
bench:
	$(GO) run ./bench

report:
	$(GO) run ./cmd/rootstudy -quick

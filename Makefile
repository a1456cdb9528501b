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

# Race coverage for the parallel campaign engine and the analyses it feeds.
# TestCampaignManyWorkersRace drives a many-worker campaign across a fault
# window so the single-flight caches are contended under the detector.
race:
	$(GO) test -race ./internal/measure/... ./internal/analysis/...

# Robustness gate: go vet, a short fuzz smoke over the dnswire codec, and
# the chaos matrix (failpoint kill/resume byte-identity, worker supervision,
# torn-tail recovery). See scripts/check.sh.
check:
	sh scripts/check.sh

# Regenerate the reproduction report via the benchmark harness, then record
# the telemetry layer's on/off overhead on the campaign engine (budget <=3%)
# into BENCH_PR5.json and the replay figures into BENCH_PR7.json. The serve
# path (with the campaign and replay end to end) is measured by the repo's
# one benchmark, `go run ./bench`: fixed workloads against the shipping
# rootserve, results in bench/out/results.json (see bench/README.md).
# BENCH_SCALE overrides schedule thinning (smaller = higher fidelity, slower).
# -benchmem keeps allocs/op visible so fast-path regressions are caught.
bench:
	$(GO) test -bench . -benchmem -benchtime 1x .
	sh scripts/bench_telemetry.sh
	sh scripts/bench_replay.sh
	$(GO) run ./bench

report:
	$(GO) run ./cmd/rootstudy -quick

#!/bin/sh
# CI race step: exercise the parallel campaign engine (worker pool,
# single-flight zone/validation caches, ordered drain), the analysis
# accumulators it feeds, and everything that rides a checkpoint — the
# dataset's block-parallel replay, the flight recorder, the segment
# container, the sidecar writer and the telemetry shards — under the Go race
# detector, along with the two per-probe models its workers call on shared
# read-only state (Catchment.SelectAt, traceroute.Run), and the DNS server,
# whose read loops, TCP connections and SetZone meet only through lock-free
# publication (the atomically swapped serve state and the compare-and-swapped
# cells of the answer table).
set -eu
cd "$(dirname "$0")/.."
exec go test -race \
	./internal/measure/... ./internal/analysis/... \
	./internal/dataset/... ./internal/qlog/... ./internal/segment/... \
	./internal/checkpoint/... ./internal/telemetry/... \
	./internal/anycast/... ./internal/traceroute/... \
	./internal/dnsserver/...

#!/bin/sh
# CI race step: the packages whose goroutines share state, under the race
# detector — the pipelined campaign and the accumulators it feeds; what rides
# a checkpoint (the dataset and flight-log writers with their seal hand-off
# in internal/segment, block-parallel replay, the sidecar, telemetry); the
# per-probe models, the zone sidecar and the signing chain the workers share;
# the AS graph with its routing tables and stub lists, which every worker
# reads at once; and the DNS server's lock-free serve state. Each package's
# tests say what they pin.
set -eu
cd "$(dirname "$0")/.."
exec go test -race \
	./internal/measure/... ./internal/analysis/... \
	./internal/dataset/... ./internal/qlog/... ./internal/segment/... \
	./internal/checkpoint/... ./internal/telemetry/... \
	./internal/anycast/... ./internal/traceroute/... \
	./internal/topology/... ./internal/rss/... ./internal/vantage/... \
	./internal/zone/... ./internal/dnssec/... ./internal/zonemd/... \
	./internal/dnsserver/...

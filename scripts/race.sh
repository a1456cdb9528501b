#!/bin/sh
# CI race step: exercise the parallel campaign engine (worker pool,
# single-flight zone/validation caches, ordered drain), the analysis
# accumulators it feeds, and everything that rides a checkpoint — the
# dataset's block-parallel replay, the flight recorder, the segment
# container, the sidecar writer and the telemetry shards — under the Go race
# detector.
set -eu
cd "$(dirname "$0")/.."
exec go test -race \
	./internal/measure/... ./internal/analysis/... \
	./internal/dataset/... ./internal/qlog/... ./internal/segment/... \
	./internal/checkpoint/... ./internal/telemetry/...

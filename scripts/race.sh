#!/bin/sh
# CI race step: exercise the pipelined campaign engine — the producer that
# computes tick t+1 (wire check, worker pool, single-flight zone/validation
# caches and their forgetting) while the calling goroutine delivers tick t,
# the two buffers that pass between them over the order and ready channels,
# and the join on a kill or a budget abort — together with the analysis
# accumulators it feeds, and everything that rides a checkpoint — the
# dataset's block-parallel replay (a fixed set of jobs going round from the
# free list through the scanner, a decode worker and the ordered drain and
# back, each handing its recycled event slabs to the next over a channel; the
# per-worker decoders, whose inflate buffer and AS-path chunks are touched by
# the drain only through the events cut from them; the join on a torn block,
# a decode error and a failed checkpoint), the flight recorder, the segment
# container, the sidecar writer and the telemetry shards — under the Go race
# detector, along with the per-probe models its workers call on shared
# read-only state (Catchment.SelectAt, Deployment.SiteByID's lazily
# published index, traceroute.EdgeAnswers and Run), the zone sidecar and the
# signing chain over it — the campaign's producer and its workers bump, sign
# and digest serials off one shared base zone at once (BumpSerial builds the
# base's sidecar once under its mutex and copies it; Sign and AttachAndSign
# grow their own copy) while others read the base's canonical order
# (zonemd's TestSharedBaseSignedConcurrently) — and the DNS server, whose
# read loops, TCP connections and SetZone meet only through lock-free
# publication (the atomically swapped serve state and the compare-and-swapped
# cells of the answer table).
set -eu
cd "$(dirname "$0")/.."
exec go test -race \
	./internal/measure/... ./internal/analysis/... \
	./internal/dataset/... ./internal/qlog/... ./internal/segment/... \
	./internal/checkpoint/... ./internal/telemetry/... \
	./internal/anycast/... ./internal/traceroute/... \
	./internal/zone/... ./internal/dnssec/... ./internal/zonemd/... \
	./internal/dnsserver/...

package dnsserver

import "repro/internal/telemetry"

// dns/queries is stream-class: the campaign's wire-check battery issues a
// deterministic query sequence per tick, serially, so the total is a pure
// function of the schedule. Query latency is wall-clock and only records
// behind the telemetry enable gate. dns/cache/hits and dns/cache/misses keep
// their names from the response cache they used to count: a hit is a query
// answered on the compiled path, a miss one answered by the oracle because
// the fast parser refused its shape.
var (
	mQueries     = telemetry.NewCounter("dns/queries")
	mQueryDur    = telemetry.NewHistogram("wallclock/dns_query_us")
	mCacheHits   = telemetry.NewCounter("dns/cache/hits")
	mCacheMisses = telemetry.NewCounter("dns/cache/misses")
)

// RRL counters are process-class: every verdict is a pure function of
// (config, per-bucket arrival index), so a serial offered load reproduces
// them byte-identically across runs and shard counts — they are what the
// check.sh adversity step diffs. Oversize drops (see answerWire), TCP
// rejects and socket errors are volatile: they follow what the network
// offers, accept timing and kernel resource limits.
var (
	mRRLDrops     = telemetry.NewCounter("rrl/drops")
	mRRLSlips     = telemetry.NewCounter("rrl/slips")
	mRRLEvictions = telemetry.NewCounter("rrl/evictions")
	mOversize     = telemetry.NewCounter("serve/oversize_drops")
	mTCPRejects   = telemetry.NewCounter("serve/tcp_rejects")
	mSocketErrors = telemetry.NewCounter("serve/socket_errors")
)

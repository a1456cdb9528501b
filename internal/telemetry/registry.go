// Package telemetry is the campaign engine's observability layer: sharded
// counters, gauges, and wall-clock histograms registered against a static
// name registry, stage spans dumpable as a Chrome trace, and exporters (text
// summary, JSON snapshot, live HTTP endpoint). It is stdlib-only and
// determinism-safe by construction:
//
//   - Logical metrics (ClassStream, ClassProcess) are commutative integer
//     sums over per-worker shards. Aggregation happens only when a snapshot
//     is read — at the tick-drain barrier, at checkpoint time, or at process
//     exit — never on the event path, so enabling telemetry cannot perturb
//     handler delivery order or the byte-identical report guarantee, and the
//     sums themselves are independent of worker count and scheduling.
//   - Wall-clock durations live in an explicitly nondeterministic namespace
//     (ClassVolatile, "wallclock/..." by convention) and are recorded only
//     when telemetry has been enabled by a flag; the package's few time.Now
//     reads carry reasoned //rootlint:allow wallclock annotations and never
//     feed back into measurement results.
//
// The registry below is the closed set of metric names. The metricname
// rootlint analyzer cross-checks it against the tree: every
// NewCounter/NewGauge/NewHistogram call site must pass a string literal
// naming a registry entry of the matching kind, each entry claimed by
// exactly one call site, with no dead entries.
package telemetry

// Kind is a metric's shape.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind for exporters.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Class is a metric's determinism contract, the load-bearing part of each
// registry entry (see DESIGN.md §11):
//
//   - ClassStream: a pure function of the campaign's event stream. Identical
//     across worker counts AND across kill/resume — these metrics are
//     captured into checkpoints and restored on resume, so a resumed run
//     reconstructs the exact counter state of an uninterrupted one.
//   - ClassProcess: deterministic across worker counts within one process,
//     but counts work this process performed (cache builds, failpoint
//     firings), which a resume legitimately repeats. Excluded from
//     checkpoints.
//   - ClassVolatile: nondeterministic by nature (wall-clock durations,
//     environment facts like the resolved worker count). Excluded from every
//     determinism comparison and from checkpoints.
type Class uint8

const (
	ClassStream Class = iota
	ClassProcess
	ClassVolatile
)

// String names the class for exporters.
func (c Class) String() string {
	switch c {
	case ClassStream:
		return "stream"
	case ClassProcess:
		return "process"
	default:
		return "volatile"
	}
}

// Def is one registry entry.
type Def struct {
	Name  string
	Kind  Kind
	Class Class
	Help  string
}

// Registry is the static metric registry, in export order. Snapshots render
// metrics in exactly this order, which is what makes logical snapshots
// byte-comparable. Histogram values are microseconds unless the name says
// otherwise.
var Registry = []Def{
	// Campaign event stream (counted at delivery; see measure/pool.go).
	{Name: "campaign/ticks", Kind: KindCounter, Class: ClassStream, Help: "ticks fully drained to handlers"},
	{Name: "campaign/pairs", Kind: KindCounter, Class: ClassStream, Help: "(tick, VP, target) pairs computed by workers and delivered"},
	{Name: "campaign/probes", Kind: KindCounter, Class: ClassStream, Help: "probe events delivered"},
	{Name: "campaign/probes_lost", Kind: KindCounter, Class: ClassStream, Help: "probes lost (no route or packet loss)"},
	{Name: "campaign/transfers", Kind: KindCounter, Class: ClassStream, Help: "AXFR transfer events delivered"},
	{Name: "campaign/transfers_lost", Kind: KindCounter, Class: ClassStream, Help: "transfers lost"},
	{Name: "campaign/faults", Kind: KindCounter, Class: ClassStream, Help: "transfers carrying an injected fault"},
	{Name: "campaign/validation_failures", Kind: KindCounter, Class: ClassStream, Help: "transfers whose ZONEMD or DNSSEC validation failed"},
	{Name: "campaign/degraded", Kind: KindCounter, Class: ClassStream, Help: "supervisor-salvaged degraded outcomes"},
	{Name: "campaign/wire_queries", Kind: KindCounter, Class: ClassStream, Help: "wire-check battery queries executed"},
	{Name: "campaign/checkpoints", Kind: KindCounter, Class: ClassStream, Help: "checkpoint sidecars written"},
	{Name: "dataset/records", Kind: KindCounter, Class: ClassStream, Help: "events encoded into the dataset"},
	{Name: "dataset/blocks_sealed", Kind: KindCounter, Class: ClassStream, Help: "dataset blocks sealed (framed + CRC'd)"},
	{Name: "dataset/bytes_sealed", Kind: KindCounter, Class: ClassStream, Help: "dataset bytes made durable by seals"},
	{Name: "dataset/replayed", Kind: KindCounter, Class: ClassStream, Help: "events decoded during replay (rootanalyze)"},
	{Name: "dataset/replay_blocks", Kind: KindCounter, Class: ClassStream, Help: "sealed blocks decoded and delivered during replay"},
	{Name: "dataset/replay_checkpoints", Kind: KindCounter, Class: ClassStream, Help: "replay checkpoints written"},
	{Name: "dns/queries", Kind: KindCounter, Class: ClassStream, Help: "DNS queries answered by the in-process server"},
	{Name: "axfr/serves", Kind: KindCounter, Class: ClassStream, Help: "zone transfers served"},

	// Process-local work (deterministic across worker counts, repeats on
	// resume).
	{Name: "cache/zone/hits", Kind: KindCounter, Class: ClassProcess, Help: "signed-zone cache hits"},
	{Name: "cache/zone/misses", Kind: KindCounter, Class: ClassProcess, Help: "signed-zone cache misses (zones signed)"},
	{Name: "cache/validation/hits", Kind: KindCounter, Class: ClassProcess, Help: "validation cache hits"},
	{Name: "cache/validation/misses", Kind: KindCounter, Class: ClassProcess, Help: "validation cache misses (validations run)"},
	{Name: "cache/battery/hits", Kind: KindCounter, Class: ClassProcess, Help: "wire checks that reused the previous tick's battery (same zone version)"},
	{Name: "cache/battery/misses", Kind: KindCounter, Class: ClassProcess, Help: "wire checks that built a battery (new zone version)"},
	{Name: "failpoint/fired", Kind: KindCounter, Class: ClassProcess, Help: "failpoint sites fired (any action)"},
	{Name: "failpoint/kills", Kind: KindCounter, Class: ClassProcess, Help: "failpoint sites fired with a kill action"},
	{Name: "campaign/queue_depth", Kind: KindGauge, Class: ClassProcess, Help: "VP shards remaining in the in-flight tick"},

	// Adversarial transport. Process-class: with a fixed netem seed and a
	// deterministic per-flow offered sequence, every netem fate and every
	// RRL verdict is a pure function of the seed — identical across runs
	// and serve-worker counts (the check.sh adversity step diffs exactly
	// these) — but they count emulated-link/limiter work this process
	// performed, which a resume legitimately repeats.
	{Name: "netem/drops", Kind: KindCounter, Class: ClassProcess, Help: "packets dropped by the emulated link (loss, blackhole, forced)"},
	{Name: "netem/dups", Kind: KindCounter, Class: ClassProcess, Help: "packets duplicated by the emulated link"},
	{Name: "netem/reorders", Kind: KindCounter, Class: ClassProcess, Help: "packet pairs delivered out of order by the emulated link"},
	{Name: "netem/corrupts", Kind: KindCounter, Class: ClassProcess, Help: "packets bit-flipped by the emulated link"},
	{Name: "netem/cuts", Kind: KindCounter, Class: ClassProcess, Help: "TCP connections severed mid-stream by the emulated link"},
	{Name: "rrl/drops", Kind: KindCounter, Class: ClassProcess, Help: "responses suppressed entirely by response-rate-limiting"},
	{Name: "rrl/slips", Kind: KindCounter, Class: ClassProcess, Help: "rate-limited responses answered with a truncated (TC) slip instead of a drop"},
	{Name: "rrl/evictions", Kind: KindCounter, Class: ClassProcess, Help: "RRL buckets evicted by the table byte budget"},

	// Nondeterministic namespace: environment facts, wall-clock durations,
	// and socket-serving counts whose values depend on packet arrival order
	// across shards. Histograms are only recorded while telemetry is
	// enabled; the serve/blast counters are always live (one atomic add).
	{Name: "process/workers", Kind: KindGauge, Class: ClassVolatile, Help: "resolved campaign worker count"},
	{Name: "dns/cache/hits", Kind: KindCounter, Class: ClassVolatile, Help: "queries answered on the compiled path (stitched from raw bytes; the name predates it)"},
	{Name: "dns/cache/misses", Kind: KindCounter, Class: ClassVolatile, Help: "queries answered by the oracle's full decode path (shapes the fast parser refuses)"},
	{Name: "serve/oversize_drops", Kind: KindCounter, Class: ClassVolatile, Help: "UDP datagrams over 512 bytes dropped undecoded because the fast parser refused their shape (the cap on oracle work per packet)"},
	{Name: "serve/tcp_rejects", Kind: KindCounter, Class: ClassVolatile, Help: "TCP connections refused over the concurrent-connection cap (depends on accept timing)"},
	{Name: "serve/socket_errors", Kind: KindCounter, Class: ClassVolatile, Help: "failed accepts and datagram reads, each followed by a backoff (depends on kernel resource limits)"},
	{Name: "blast/sent", Kind: KindCounter, Class: ClassVolatile, Help: "rootblast queries sent"},
	{Name: "blast/received", Kind: KindCounter, Class: ClassVolatile, Help: "rootblast responses matched to an outstanding query"},
	{Name: "blast/timeouts", Kind: KindCounter, Class: ClassVolatile, Help: "rootblast queries reaped unanswered"},
	{Name: "blast/retries", Kind: KindCounter, Class: ClassVolatile, Help: "rootblast queries re-sent after a per-attempt deadline expired"},
	{Name: "blast/lost", Kind: KindCounter, Class: ClassVolatile, Help: "rootblast queries abandoned after the retry budget (sent == received + lost at exit)"},
	{Name: "blast/mismatches", Kind: KindCounter, Class: ClassVolatile, Help: "rootblast datagrams that matched no outstanding query"},
	{Name: "qlog/events", Kind: KindCounter, Class: ClassVolatile, Help: "flight-recorder events emitted (count follows offered traffic; the log itself is the determinism-checked artifact)"},
	{Name: "qlog/blackbox_dumps", Kind: KindCounter, Class: ClassVolatile, Help: "black-box ring dumps written (panic, budget abort, or failpoint kill)"},
	{Name: "wallclock/blast_rtt_us", Kind: KindHistogram, Class: ClassVolatile, Help: "rootblast query round-trip time"},
	{Name: "wallclock/tick_us", Kind: KindHistogram, Class: ClassVolatile, Help: "wall time from one tick's delivery to the next (with two or more workers the tick after is computed meanwhile)"},
	{Name: "wallclock/wirecheck_us", Kind: KindHistogram, Class: ClassVolatile, Help: "wall time per wire-check battery"},
	{Name: "wallclock/vploop_us", Kind: KindHistogram, Class: ClassVolatile, Help: "wall time one worker lane spends in a tick's VP loop (probe, transfer and validate for the VPs it took)"},
	{Name: "wallclock/checkpoint_us", Kind: KindHistogram, Class: ClassVolatile, Help: "wall time per checkpoint (seal + write)"},
	{Name: "wallclock/dns_query_us", Kind: KindHistogram, Class: ClassVolatile, Help: "wall time per served DNS query"},
	{Name: "wallclock/axfr_serve_us", Kind: KindHistogram, Class: ClassVolatile, Help: "wall time per served zone transfer"},
}

// lookupDef finds a registry entry by name.
func lookupDef(name string) *Def {
	for i := range Registry {
		if Registry[i].Name == name {
			return &Registry[i]
		}
	}
	return nil
}

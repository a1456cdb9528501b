// Package qlog is the per-query flight recorder: one wide, structured event
// per query carrying the full decision chain the aggregate telemetry layer
// collapses — netem fate, RRL verdict, compiled-path answer and EDNS bucket,
// truncation, response class on the server; attempt count and logical
// backoff latency in rootblast; probe/transfer outcomes in the campaign
// engine. It is the per-query evidence trail that query-composition studies
// (B-Root) and high-rate measurement tools expose as per-query result rows.
//
// Determinism contract: whether a query is recorded is a pure seeded.Mix
// function of (sampling seed, query key), never of worker, shard, or wall
// clock, and every recorded field is logical (derived from wire bytes, seeds,
// and counters). Client and server sampling the same key therefore select the
// same queries, which is what makes `rootanalyze -qlog join` total, and the
// canonically ordered event stream is byte-identical at any worker count.
//
// Events are framed into the sealed-segment container (internal/segment):
// per-block CRC, torn-tail truncation, byte-identical resume — the same
// durability story as the campaign dataset.
//
// The registry below is the closed set of event kinds and their fields. The
// qlogfield rootlint analyzer cross-checks it against the tree: every
// NewEvent call site must pass string literals naming a registry kind and
// exactly its field list, each kind claimed by exactly one call site, with no
// dead entries.
package qlog

// Field is one numeric event field. Values are uvarint-encoded uint64s;
// Enum, when set, names the symbolic values for display and composition
// tables (value N renders as Enum[N]).
type Field struct {
	Name string
	Help string
	Enum []string
}

// Def is one registry entry: an event kind and its ordered field list.
// Events of this kind carry exactly these numeric fields, in this order,
// plus the common envelope (key, subject bytes).
type Def struct {
	Kind   string
	Help   string
	Fields []Field
}

// Registry is the static event schema, in encoding order: a record's kind
// is its index here, so the order is part of the on-disk format.
var Registry = []Def{
	{
		Kind: "serve/query",
		Help: "one query's path through the UDP serve pipeline (terminal outcome)",
		Fields: []Field{
			{Name: "flow", Help: "netem flow key of the client address"},
			{Name: "fidx", Help: "per-flow delivery index on this server"},
			{Name: "fate", Help: "ingress fate on the emulated link", Enum: []string{"ok", "drop"}},
			{Name: "verdict", Help: "RRL verdict for the response", Enum: []string{"none", "send", "drop", "slip"}},
			{Name: "cache", Help: "answered on the compiled path (a function of the query's shape; the name predates it)", Enum: []string{"miss", "hit"}},
			{Name: "bucket", Help: "EDNS size bucket", Enum: []string{"512", "1232", "4096"}},
			{Name: "edns", Help: "query carried an OPT record"},
			{Name: "do", Help: "query set the DO bit"},
			{Name: "tc", Help: "response truncated to a TC stub"},
			{Name: "class", Help: "response class", Enum: []string{"answer", "nxdomain", "error"}},
			{Name: "rcode", Help: "response rcode"},
		},
	},
	{
		Kind: "blast/query",
		Help: "one rootblast query lifecycle (terminal outcome after retries)",
		Fields: []Field{
			{Name: "attempts", Help: "send attempts (1 = no retry)"},
			{Name: "outcome", Help: "final state", Enum: []string{"ok", "lost"}},
			{Name: "rcode", Help: "response rcode (ok only)"},
			{Name: "tc", Help: "response had TC set (RRL slip stub)"},
			{Name: "wait_us", Help: "logical backoff waited across retries, microseconds"},
		},
	},
	{
		Kind: "measure/probe",
		Help: "one campaign probe (tick, VP, target), recorded at the serial drain",
		Fields: []Field{
			{Name: "tick", Help: "tick index"},
			{Name: "vp", Help: "vantage point index"},
			{Name: "lost", Help: "probe lost"},
			{Name: "degraded", Help: "supervisor-salvaged degraded outcome"},
			{Name: "rtt_cms", Help: "round-trip time, centi-milliseconds (0 when lost)"},
		},
	},
	{
		Kind: "measure/transfer",
		Help: "one campaign zone transfer (tick, VP, target), recorded at the serial drain",
		Fields: []Field{
			{Name: "tick", Help: "tick index"},
			{Name: "vp", Help: "vantage point index"},
			{Name: "lost", Help: "transfer lost"},
			{Name: "degraded", Help: "supervisor-salvaged degraded outcome"},
			{Name: "fault", Help: "injected fault kind (faults.Kind)"},
			{Name: "serial", Help: "transferred zone serial (0 when lost)"},
			{Name: "mismatch", Help: "old/new comparison mismatch"},
		},
	},
}

// lookupDef finds a registry entry and its index by kind name.
func lookupDef(kind string) (int, *Def) {
	for i := range Registry {
		if Registry[i].Kind == kind {
			return i, &Registry[i]
		}
	}
	return -1, nil
}

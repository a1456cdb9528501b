package failpoint

// Site is one registered failpoint site. The registry below is the single
// source of truth for which sites exist in the tree; it is kept in sync
// mechanically, not by convention:
//
//   - Enable refuses a spec that names a site missing here, or asks a kill
//     of a site whose Kill is false;
//   - rootlint's failpointsite analyzer cross-checks every
//     failpoint.Eval("…") literal in the module against this list (and
//     this list against the tree), so an unregistered site, a dead entry,
//     or a duplicate fails `make lint`;
//   - TestSiteRegistryMatchesTree re-walks the source and asserts the same
//     from `go test`, plus that every Kill-capable site is actually killed
//     (and resumed to byte-identical output) by the chaos matrix in
//     internal/measure/chaos_test.go.
type Site struct {
	// Name is the literal passed to Eval.
	Name string
	// Kill reports whether the site may host a kill action: Eval's
	// ErrKilled return unwinds the whole run, skipping cleanup the way a
	// real SIGKILL would, and the checkpoint/resume path restores
	// byte-identical output. Sites inside worker supervision are not
	// kill-capable — their Eval errors are classified as degraded outcomes
	// and absorbed, and their parallel hit ordering is nondeterministic.
	Kill bool
}

// Sites is the failpoint site registry, ordered by name.
var Sites = []Site{
	// Between sealing the dataset and writing the checkpoint sidecar: a
	// kill here leaves sealed-but-uncheckpointed blocks that resume must
	// truncate.
	{Name: "campaign/checkpoint", Kill: true},
	// Tick-loop boundary, before any of the tick's work: the cleanest
	// crash window.
	{Name: "campaign/tick", Kill: true},
	// Entry of Writer.CheckpointSeal, before any bytes move: an injected
	// error is retried within the error budget; a kill aborts the run with
	// the pending block still buffered (never written).
	{Name: "dataset/seal", Kill: true},
	// Mid-frame during a block seal: a kill tears the frame on disk, and
	// resume detects and truncates the torn tail. Hit once per frame, in
	// block order, on the goroutine sealing it (the writer's own for a block
	// handed off at BlockBytes).
	{Name: "dataset/seal/partial", Kill: true},
	// Replay checkpoint, between sealing handler state and writing the
	// sidecar: a kill proves resume trusts the previous sidecar, not the
	// in-memory state, and replays the gap byte-identically.
	{Name: "dataset/replay", Kill: true},
	// Worker probe stage, under supervision: panics and errors degrade the
	// pair within the budget. Not kill-capable (absorbed, and parallel hit
	// order is racy).
	{Name: "measure/worker/probe", Kill: false},
	// Worker transfer stage, under supervision; see measure/worker/probe.
	{Name: "measure/worker/transfer", Kill: false},
	// Head of netem.Link.Admit: an injected error is a forced drop, so the
	// chaos harness can vanish any single packet without probability
	// arithmetic. Not kill-capable: packet fates are absorbed losses, and
	// the link carries no checkpointed state.
	{Name: "netem/inject", Kill: false},
	// Head of the flight recorder's checkpoint seal: a kill aborts the run
	// with the pending qlog block still buffered and dumps the black-box
	// ring on the way down; resume truncates at the sealed offset and the
	// resumed flight log is byte-identical.
	{Name: "qlog/seal", Kill: true},
	// RRL verdict funnel in the serve path: an injected error forces a
	// drop verdict for one response. Not kill-capable: the RRL table is
	// volatile serving state, excluded from checkpoints by construction
	// (TestRRLStateExcludedFromCheckpoints).
	{Name: "serve/rrl/decide", Kill: false},
}

#!/bin/sh
# CI robustness step: static analysis and grep guards, a short fuzz smoke
# over every parser with a fuzz target, and the chaos matrix (kill/resume
# byte-identity at every failpoint site crossed with serial and parallel
# workers).
set -eu
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

# wait_for_bind <log> <what>: rootserve on 127.0.0.1:0 prints the port it
# got; poll its log for up to 10s and leave the port in $port.
wait_for_bind() {
	port=""
	i=0
	while [ $i -lt 100 ]; do
		port=$(sed -n 's/.* on 127\.0\.0\.1:\([0-9]*\) (udp+tcp)$/\1/p' "$1")
		[ -n "$port" ] && return 0
		i=$((i + 1))
		sleep 0.1
	done
	echo "rootserve ($2) never bound" >&2
	exit 1
}

echo "== go vet =="
go vet ./...

# The analyzers' fixtures keep their want comments where they are.
echo "== gofmt =="
unformatted=$(gofmt -l . | grep -v '^internal/lint/testdata/' || true)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need gofmt -w:" >&2
	echo "$unformatted" >&2
	exit 1
fi

# One seeded-hash helper: the SplitMix64 finalizer and the FNV-1a prime may
# be spelled out only in internal/seeded (and in the detrand analyzer's
# fixtures). A second copy is how the seven private ones started.
echo "== seeded-hash guard =="
if grep -rIil --include='*.go' --exclude='*_test.go' \
	-e '0xbf58476d1ce4e5b9' -e '1099511628211' . |
	grep -v -e '^\./internal/seeded/' -e '^\./internal/lint/testdata/'; then
	echo "seeded-hash guard: the files above open-code a hash constant; use internal/seeded" >&2
	exit 1
fi

# One way out of a binary: under cmd/, os.Exit belongs to the one-line main
# that hands run's code to the process, and to rootmeasure's simulated kill,
# which must skip what run deferred as a SIGKILL would. Anywhere else it
# leaves past the deferred stops and closes, and a failed run loses its
# -metrics, -trace and profile files.
echo "== exit guard =="
if grep -rn --include='*.go' -e 'os\.Exit(' -e 'log\.Fatal' cmd |
	grep -v -e 'func main() { os\.Exit(run(os\.Args\[1:\], os\.Stdout, os\.Stderr)) }$' \
		-e '// exit-guard: the simulated kill$'; then
	echo "exit guard: the lines above leave a binary from below main; return a code from run" >&2
	exit 1
fi

# Every program in the module is run by a test, or it goes: a main package
# without a test file is a root that keeps code alive for deadcode while no
# test, script or CI leg runs it.
echo "== untested-main guard =="
untested=$(go list -f '{{.Name}} {{len .TestGoFiles}} {{len .XTestGoFiles}} {{.ImportPath}}' ./... |
	awk '$1 == "main" && $2 + $3 == 0 { print $4 }')
if [ -n "$untested" ]; then
	echo "untested-main guard: these programs have no test file; test them or delete them:" >&2
	echo "$untested" >&2
	exit 1
fi

# rootlint runs before the fuzz smoke: a determinism or hot-path violation
# is cheaper to surface than a fuzz crash, and the suite doubles as a type
# check of the whole tree. The suite includes metricname, which cross-checks
# every telemetry constructor call site against the static registry, and the
# whole-program lockcheck/leakcheck passes. -time prints per-analyzer wall
# time, and the wall-time budget fails the build if the whole suite (load,
# type check, all analyzers) exceeds LINT_BUDGET_SECS — whole-program passes
# must not rot the edit loop.
echo "== rootlint =="
LINT_BUDGET_SECS="${LINT_BUDGET_SECS:-30}"
lint_t0=$(date +%s)
go run ./cmd/rootlint -time ./...
lint_elapsed=$(( $(date +%s) - lint_t0 ))
echo "rootlint: total ${lint_elapsed}s (budget ${LINT_BUDGET_SECS}s)"
if [ "$lint_elapsed" -gt "$LINT_BUDGET_SECS" ]; then
    echo "rootlint: exceeded the ${LINT_BUDGET_SECS}s lint budget" >&2
    exit 1
fi

# Telemetry under the race detector: many writers hammer every metric kind
# and the span ring while readers snapshot and checkpoint concurrently, so a
# data race in the sharded design fails CI rather than a campaign.
echo "== telemetry race stress =="
go test -race -count=1 -run 'TestTelemetryStressConcurrent' ./internal/telemetry

# Serve path under the race detector: concurrent clients hammer a server
# while SetZone swaps the zone (and the answers compiled from it) out from
# under them, a sharded multi-socket server answers in parallel, and the
# differential table test walks the whole answer space from 4 shards at once
# so first-touch compilation of a table cell is contended. Catches races in
# the atomic state swap, the table slots and the per-shard buffer reuse.
echo "== serve-under-load race stress =="
go test -race -count=1 -run 'TestSetZoneUnderLoad|TestServeWorkersSharded|TestCompiledAnswersMatchOracle|TestSetZoneDropsCompiledAnswers' ./internal/dnsserver

# fuzz <package> <target>: a short fuzz smoke, a few seconds of
# coverage-guided input on top of the target's seed corpus. A crash fails the
# step. A new interesting input is minimized for at most a second, not go
# test's 60 s default, so the leg spends its time fuzzing; its last execs:
# line shows how much it did.
fuzz() {
	echo "== fuzz $2 (5s) =="
	if ! go test -run "^$2\$" -fuzz "^$2\$" -fuzztime 5s -fuzzminimizetime 1s "$1" >"$tmp/fuzz.log" 2>&1; then
		cat "$tmp/fuzz.log" >&2
		exit 1
	fi
	grep 'execs:' "$tmp/fuzz.log" | tail -n 1
}
# The wire codec; FuzzViewAgreement cross-checks the lazy wire view against
# the full decoder on every input the codec fuzzers ever found interesting.
fuzz ./internal/dnswire FuzzUnpack
fuzz ./internal/dnswire FuzzDecodeName
fuzz ./internal/dnswire FuzzViewAgreement
# The front door's key=value walker and everything that parses a flag with it
# (-netem, -rrl, -qlog-sample, -chaos): no spec panics, and an accepted one
# renders to a spec that sets the same value.
fuzz ./internal/cli FuzzSpec
# The flight-log frame decoder: arbitrary bytes must never panic the reader,
# and whatever decodes must satisfy the envelope invariants (registered kind,
# full field list).
fuzz ./internal/qlog FuzzQlogDecode
# The sealed-segment container under every dataset and flight log: arbitrary
# bytes behind a valid header must never panic the frame scanner, the CRC +
# inflate step or the record reader, and a scanned frame is exactly as long
# as its header says.
fuzz ./internal/segment FuzzScanFrame
# The dataset's record decoder on top of it: for any block payload and
# declared count, the replay's compact decode and the events its drain builds
# must equal what the slow field-by-field oracle decodes, stop at the same
# record, and fail or not alike.
fuzz ./internal/dataset FuzzBlockDecode
# The serve path's two byte-level decisions against their oracles: the fast
# parser must agree with the full decoder on everything it accepts, and a
# compiled answer must equal decode + Handle + pack + truncate byte for byte
# (seeded with both compression traps: "www.CoM." and "ns1.com.").
fuzz ./internal/dnsserver FuzzShapeAgreement
fuzz ./internal/dnsserver FuzzCompiledAgreement
# The master-file parser zonemdcheck reads from disk: no text panics it, and
# a zone it accepts prints to text that parses and prints the same bytes.
fuzz ./internal/zone FuzzParse
# The transfer reader's lazy walk against its decoding visitor: a record the
# decoder reads has the same canonical bytes through the view, and a stream
# Receive takes whole ReceiveLazy counts and walks alike.
fuzz ./internal/axfr FuzzReceiveLazy

echo "== chaos matrix =="
go test -run 'TestChaos|TestSeal|TestWorker|TestResume|TestTorn|TestCorruptBlock|TestReplay|TestRewind|TestSingleBit|TestCrash|TestRefusals|TestHandOff|TestEveryFence|TestFailingOutput' \
	./internal/measure ./internal/dataset ./internal/qlog ./internal/segment ./internal/checkpoint

# Adversarial transport: the netem fate engine, RRL verdict determinism
# (including the forced-drop failpoint), truncation fallback and AXFR retry
# under seeded loss/cuts, and blast-under-loss accounting (sent == received +
# lost with no goroutine leaks).
echo "== adversarial transport tests =="
go test -count=1 ./internal/netem
go test -count=1 \
	-run 'TestRRL|TestChaosForced|TestTCFallbackUnderNetem|TestAXFRRetryAfterNetemCut|TestRunUnderLossCompletes|TestRunBlackholeTerminates' \
	./internal/dnsserver ./internal/blast

# Snapshot-diff self-check: record a small campaign dataset, replay it
# serially, with a 4-worker decode pool, and with the pool checkpointing as it
# goes, and require what the user reads to agree, not only the counters: the
# three reports (every table and figure rootanalyze prints) must be
# cmp-identical, and the telemetry snapshots of the first two must agree on
# every logical metric. This exercises the shipping binaries end to end and
# is the standing demonstration that block-parallel replay, its recycled
# blocks and its checkpoints change wall-clock, not behavior. The world is not
# the default one and no replay is told so: the recording names its run.
echo "== snapshot-diff self-check (serial vs parallel vs checkpointed replay) =="
go build -o "$tmp/rootmeasure" ./cmd/rootmeasure
go build -o "$tmp/rootanalyze" ./cmd/rootanalyze
"$tmp/rootmeasure" -scale 512 -vpscale 8 -tlds 20 -out "$tmp/study.rgds" >/dev/null
"$tmp/rootanalyze" -in "$tmp/study.rgds" \
	-metrics "$tmp/serial.json" >"$tmp/serial.txt"
"$tmp/rootanalyze" -in "$tmp/study.rgds" -workers 4 \
	-metrics "$tmp/parallel.json" >"$tmp/parallel.txt"
"$tmp/rootanalyze" -in "$tmp/study.rgds" -workers 4 \
	-checkpoint "$tmp/replay.ckpt" >"$tmp/checkpointed.txt"
"$tmp/rootanalyze" -diff "$tmp/serial.json" "$tmp/parallel.json"
cmp "$tmp/serial.txt" "$tmp/parallel.txt"
cmp "$tmp/serial.txt" "$tmp/checkpointed.txt"

# Live and replay print one report: one run at the default preset, reported
# live by rootstudy and replayed by rootanalyze from rootmeasure's recording,
# prints each section both programs print to the byte. A section is a
# blank-line separated block named by its first line (awk's paragraph mode);
# the replay may print none that the live report does not.
echo "== live vs replay report (default preset) =="
go build -o "$tmp/rootstudy" ./cmd/rootstudy
"$tmp/rootstudy" >"$tmp/live.txt"
"$tmp/rootmeasure" -out "$tmp/default.rgds" >/dev/null
"$tmp/rootanalyze" -in "$tmp/default.rgds" >"$tmp/replay.txt"
awk 'BEGIN { RS = ""; FS = "\n" } NR == FNR { if (FNR > 1) named[$1] = 1; next }
	$1 in named { print; print "" }' "$tmp/replay.txt" "$tmp/live.txt" >"$tmp/live-shared.txt"
awk 'BEGIN { RS = ""; FS = "\n" } FNR > 1 { print; print "" }' "$tmp/replay.txt" >"$tmp/replay-shared.txt"
if ! diff "$tmp/live-shared.txt" "$tmp/replay-shared.txt" >"$tmp/live-replay.diff"; then
	head -n 20 "$tmp/live-replay.diff" >&2
	echo "live vs replay: $(grep -c '^<' "$tmp/live-replay.diff") lines of the live report differ from the replay" >&2
	exit 1
fi
awk 'BEGIN { RS = "" } END { print NR " sections identical" }' "$tmp/replay-shared.txt"

# Every artefact of analysis.Artefacts, once each, from the full 675-VP
# population on the coarsest schedule: the root benchmarks build and run, and
# the README's bench command names one that exists. go test interleaves the
# rendered artefacts with the timings, so the log is shown only on failure.
echo "== artefact benchmarks (BENCH_SCALE=512, once each) =="
if ! BENCH_SCALE=512 go test -run '^$' -bench '^BenchmarkArtefacts$' -benchtime 1x . >"$tmp/artefacts.txt" 2>&1; then
	cat "$tmp/artefacts.txt" >&2
	exit 1
fi
grep -c '^BenchmarkArtefacts/' "$tmp/artefacts.txt" | sed 's/$/ artefacts rendered/'

# The world build, once each: the bench-size world without its 26 routing
# tables (what a replay builds), with them resolved across the CPUs and
# inline, and one routing table. They build and run; their ns/op, B/op and
# allocs/op lines are printed.
echo "== world-build benchmarks (once each) =="
if ! go test -run '^$' -bench '^(BenchmarkNewWorld|BenchmarkRouteComputation)$' -benchtime 1x -benchmem . >"$tmp/world.txt" 2>&1; then
	cat "$tmp/world.txt" >&2
	exit 1
fi
grep '^Benchmark' "$tmp/world.txt"

# Recording byte-identity with the shipping binary: the serial engine, the
# pipelined one (4 workers computing a tick ahead of its delivery), and the
# pipelined one killed at the second tick after a checkpoint and resumed,
# must write the same dataset at the same checkpoint cadence. The kill finds
# the tick after it already computed; none of it may reach the file. The
# resume is given the two files and nothing else about the run: seed, world,
# schedule and cadence are what the interrupted recording says they were.
echo "== recording identity (workers 1 vs 4 vs 4 killed and resumed) =="
every=4
record() {
	name=$1
	shift
	"$tmp/rootmeasure" -scale 512 -vpscale 8 -tlds 20 -checkpoint-every "$every" \
		-out "$tmp/$name.rgds" -checkpoint "$tmp/$name.ckpt" "$@" >/dev/null
}
# identity <chaos spec>: serial vs pipelined vs pipelined killed and resumed.
identity() {
	record serial -workers 1 -metrics "$tmp/serial.json" 2>"$tmp/serial.telemetry" ||
		{ cat "$tmp/serial.telemetry" >&2; exit 1; }
	record pipelined -workers 4
	status=0
	record resumed -workers 4 -chaos "$1" 2>/dev/null || status=$?
	if [ "$status" -ne 3 ]; then
		echo "rootmeasure -chaos $1 exited $status, want 3" >&2
		exit 1
	fi
	"$tmp/rootmeasure" -out "$tmp/resumed.rgds" -checkpoint "$tmp/resumed.ckpt" -workers 4 -resume >/dev/null
	cmp "$tmp/serial.rgds" "$tmp/pipelined.rgds"
	cmp "$tmp/serial.rgds" "$tmp/resumed.rgds"
}
identity campaign/tick=kill@6

# At that cadence a checkpoint interval is under one block (512 KB), so every
# seal above was a checkpoint fence. Every 12 ticks, blocks fill between
# checkpoints and are handed off to the seal goroutine while the next is
# encoded (dataset/blocks_sealed must say so); frame 5, counting the
# description, is such a block, behind the first checkpoint, and the kill
# tears it on that goroutine.
echo "== recording identity across auto-seals (checkpoint every 12; frame 5 torn and resumed) =="
every=12
identity dataset/seal/partial=kill@5
# -metrics also prints the summary table to stderr; metric reads that.
metric() {
	awk -v name="$1" '$1 == name { print $2 }' "$tmp/serial.telemetry"
}
blocks=$(metric dataset/blocks_sealed)
checkpoints=$(metric campaign/checkpoints)
if [ "$blocks" -le "$((checkpoints + 2))" ]; then # the description, the close
	echo "recording identity: $blocks blocks sealed over $checkpoints checkpoints: no auto-seal fell between them" >&2
	exit 1
fi

# Blast under loss with RRL on, serve-workers 1 vs 4: the PR-8 acceptance
# check. A serial retrying blast drives a server whose emulated link drops
# and corrupts packets and whose rate limiter suppresses repeats, all
# seed-pinned; the logical telemetry snapshots (netem fates, RRL verdicts,
# queries handled) must be byte-identical across worker counts.
echo "== adversarial determinism (rrl+netem, serve-workers 1 vs 4) =="
go build -o "$tmp/rootserve" ./cmd/rootserve
go build -o "$tmp/rootblast" ./cmd/rootblast
for w in 1 4; do
	"$tmp/rootserve" -addr 127.0.0.1:0 -tlds 20 -serve-workers "$w" \
		-netem "loss=0.1,corrupt=0.05,seed=42" \
		-rrl "rate=0.5,burst=1,slip=2,seed=7" \
		-qlog "$tmp/flight-$w.qlog" -qlog-sample "every=1,seed=7" \
		-metrics "$tmp/adv-$w.json" >"$tmp/adv-$w.log" &
	srv=$!
	wait_for_bind "$tmp/adv-$w.log" "workers=$w"
	"$tmp/rootblast" -server "127.0.0.1:$port" -count 120 -blast-workers 1 \
		-window 1 -tlds 20 -timeout 50ms -retry 2 -backoff 2ms >/dev/null
	kill -INT "$srv"
	wait "$srv"
done
"$tmp/rootanalyze" -diff "$tmp/adv-1.json" "$tmp/adv-4.json"

# The same two runs recorded full-rate flight logs: the canonically ordered
# per-query event streams must be byte-identical across serve-worker counts
# (the PR-10 acceptance twin of the -diff check above).
echo "== flight-log identity (serve-workers 1 vs 4) =="
"$tmp/rootanalyze" -qlog diff "$tmp/flight-1.qlog" "$tmp/flight-4.qlog"

# Client/server flight-log join: both sides record the same sampled subset
# (equal -qlog-sample specs), and the loss accounting must balance — every
# query the client sent is matched to a served response or explained by a
# server-side drop. Corruption is off in this profile: a corrupted query
# hashes to a different key on the server, which is exactly what the join
# would (correctly) refuse to pair.
echo "== flight-log client/server join =="
"$tmp/rootserve" -addr 127.0.0.1:0 -tlds 20 \
	-netem "loss=0.1,seed=42" \
	-rrl "rate=0.5,burst=1,slip=2,seed=7" \
	-qlog "$tmp/join-server.qlog" -qlog-sample "every=1,seed=7" \
	>"$tmp/join.log" &
srv=$!
wait_for_bind "$tmp/join.log" "join leg"
"$tmp/rootblast" -server "127.0.0.1:$port" -count 120 -blast-workers 1 \
	-window 1 -tlds 20 -timeout 50ms -retry 2 -backoff 2ms \
	-qlog "$tmp/join-client.qlog" -qlog-sample "every=1,seed=7" >/dev/null
kill -INT "$srv"
wait "$srv"
"$tmp/rootanalyze" -qlog join "$tmp/join-server.qlog" "$tmp/join-client.qlog"

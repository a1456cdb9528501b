package qlog

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"

	"repro/internal/cli"
	"repro/internal/failpoint"
	"repro/internal/seeded"
	"repro/internal/segment"
)

// Magic and Version identify the flight-recorder segment stream. The block
// framing is segment's; only the record encoding is qlog's. Version 3
// dropped the client/query kind, as 2 did serve/query's shed field; an older
// log is refused at open.
const (
	Magic   = "RGQL"
	Version = 3
)

// Key hashes a query's identifying bytes (message ID + flags + question
// section — the prefix both sides of an exchange see verbatim) into the
// 64-bit join/sampling key. FNV-1a, matching netem.FlowAddr's choice.
func Key(b []byte) uint64 { return seeded.FNV(seeded.FNVBasis, b) }

// KeyVals folds small logical integers (tick, VP, target ordinal) into a
// key for event sources that have no wire bytes (the campaign engine).
func KeyVals(vs ...uint64) uint64 {
	h := uint64(0x51ed270b8d2c4a35)
	for _, v := range vs {
		h = seeded.Mix(h ^ v)
	}
	return h
}

// QuestionEnd returns the offset one past the question section of a DNS
// message (header + one uncompressed QNAME + type/class), or -1 when the
// message has no single well-formed question. wire[:QuestionEnd(wire)] is
// the canonical join subject for client/server event matching.
func QuestionEnd(w []byte) int {
	if len(w) < 12 || binary.BigEndian.Uint16(w[4:6]) != 1 {
		return -1
	}
	i := 12
	for {
		if i >= len(w) {
			return -1
		}
		l := int(w[i])
		if l == 0 {
			i++
			break
		}
		if l >= 0xC0 { // compression pointer: queries never emit one
			return -1
		}
		i += 1 + l
	}
	if i+4 > len(w) {
		return -1
	}
	return i + 4
}

// Sampler decides which queries are recorded: a pure seeded.Mix function of
// (Seed, key). Every = 0 records nothing; 1 records everything; N records
// the deterministic 1/N subset whose hash lands on residue zero. Two
// samplers with equal Seed and Every select identical key sets — the
// property the client/server join relies on.
type Sampler struct {
	Seed  uint64
	Every uint64
}

// Set parses the -qlog-sample flag syntax (Sampler is a flag.Value): key=value
// terms as internal/cli walks them, e.g. "every=64,seed=7". A spec starts
// from every=1,seed=0, so the empty spec records every query. Client and
// server record the same query subset exactly when their specs agree.
func (s *Sampler) Set(sp string) error {
	*s = Sampler{Every: 1}
	return cli.Walk(sp, func(k, v string) (err error) {
		switch k {
		case "every":
			s.Every, err = strconv.ParseUint(v, 10, 64)
		case "seed":
			s.Seed, err = strconv.ParseUint(v, 10, 64)
		default:
			err = cli.Unknown(k, "every, seed")
		}
		return err
	})
}

// String renders the sampler in the syntax Set parses.
func (s Sampler) String() string { return fmt.Sprintf("every=%d,seed=%d", s.Every, s.Seed) }

// Sampled reports whether the key is in the recorded subset.
func (s Sampler) Sampled(key uint64) bool {
	switch s.Every {
	case 0:
		return false
	case 1:
		return true
	}
	return seeded.Mix(s.Seed^key)%s.Every == 0
}

// Kind is one claimed event kind, the handle Emit requires. Like telemetry
// metrics, kinds are claimed exactly once at package init via NewEvent; the
// qlogfield analyzer enforces the claim discipline statically and the
// runtime panic below backstops it.
type Kind struct {
	idx int
	def *Def
}

var (
	claimMu sync.Mutex
	claimed = make(map[string]bool)
)

// NewEvent claims an event kind. The kind and the field names must be
// string literals matching one Registry entry exactly (name and order):
// naming the fields at the claim site is what lets the qlogfield analyzer
// cross-check emission arity against the schema without tracing data flow.
// Unregistered kinds, field-list mismatches, and double claims panic at
// package init, exactly like telemetry's claim.
func NewEvent(kind string, fields ...string) *Kind {
	idx, def := lookupDef(kind)
	if def == nil {
		panic(fmt.Sprintf("qlog: event kind %q is not in the Registry", kind))
	}
	if len(fields) != len(def.Fields) {
		panic(fmt.Sprintf("qlog: event %q claimed with %d fields, Registry has %d", kind, len(fields), len(def.Fields)))
	}
	for i, f := range fields {
		if f != def.Fields[i].Name {
			panic(fmt.Sprintf("qlog: event %q field %d is %q, Registry says %q", kind, i, f, def.Fields[i].Name))
		}
	}
	claimMu.Lock()
	defer claimMu.Unlock()
	if claimed[kind] {
		panic(fmt.Sprintf("qlog: event kind %q claimed twice", kind))
	}
	claimed[kind] = true
	return &Kind{idx: idx, def: def}
}

// Recorder is a sampling flight recorder writing qlog segments. A nil
// *Recorder is the disabled recorder: Sampled reports false and Emit is a
// no-op, so instrumented hot paths stay a nil check when recording is off.
//
// Emit serializes under a mutex; at sampling rates like 1/64 the section is
// a memcpy into the pending block and never contends measurably. Encoding
// itself happens outside the lock in pooled buffers.
type Recorder struct {
	//rootlint:immutable-after-start
	sampler Sampler
	//rootlint:immutable-after-start
	blackboxPath string
	// file is the log Flags.Open opened under the recorder, closed with it.
	//rootlint:immutable-after-start
	file *os.File

	mu sync.Mutex
	//rootlint:guardedby mu
	seg *segment.Writer
	//rootlint:guardedby mu
	events int
}

// New starts a recorder writing to out with the given sampler. blackboxPath,
// when non-empty, is where the in-memory black-box ring is dumped if the
// recorder's checkpoint path is killed (see CheckpointSeal).
func New(out io.Writer, sampler Sampler, blackboxPath string) (*Recorder, error) {
	seg, err := segment.NewWriter(out, Magic, Version)
	if err != nil {
		return nil, err
	}
	return &Recorder{sampler: sampler, blackboxPath: blackboxPath, seg: seg}, nil
}

// recorderState is the opaque blob stored in campaign checkpoints.
type recorderState struct {
	Offset int64 `json:"offset"`
	Events int   `json:"events"`
}

// Sampled reports whether key is recorded. Nil-safe and allocation-free:
// the compiled-in-but-off fast path is this one branch.
func (r *Recorder) Sampled(key uint64) bool {
	if r == nil {
		return false
	}
	return r.sampler.Sampled(key)
}

// encPool recycles event encoding buffers so the sampled-on path allocates
// only when a query's subject outgrows every previous buffer.
var encPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// Emit records one event. vals must carry exactly the claimed kind's fields,
// in registry order; subject is the event's identifying bytes (the query
// prefix for wire events, the target key for campaign events) and is copied.
// Callers are expected to have consulted Sampled — Emit records
// unconditionally so black-box-only recorders stay possible.
func (r *Recorder) Emit(k *Kind, key uint64, subject []byte, vals ...uint64) {
	if r == nil {
		return
	}
	if len(vals) != len(k.def.Fields) {
		panic(fmt.Sprintf("qlog: event %q emitted with %d values, schema has %d fields", k.def.Kind, len(vals), len(k.def.Fields)))
	}
	bp := encPool.Get().(*[]byte)
	buf := (*bp)[:0]
	buf = binary.AppendUvarint(buf, uint64(k.idx))
	buf = binary.AppendUvarint(buf, key)
	buf = binary.AppendUvarint(buf, uint64(len(subject)))
	buf = append(buf, subject...)
	for _, v := range vals {
		buf = binary.AppendUvarint(buf, v)
	}
	r.mu.Lock()
	if r.seg.Err() == nil {
		r.seg.Raw(buf)
		r.seg.EndRecord()
		r.events++
	}
	r.mu.Unlock()
	blackbox.add(buf)
	mEvents.Inc()
	*bp = buf
	encPool.Put(bp)
}

// Events reports how many events have been recorded (including the count
// restored from a checkpoint).
func (r *Recorder) Events() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events
}

// CheckpointSeal implements checkpoint.Part for the flight log: seal the
// pending block, sync, return resume state. The qlog/seal failpoint at the
// head is a kill-capable chaos site; on a kill the black-box ring is dumped
// to the configured path on the way down — every chaos-matrix failure leaves
// an inspectable trace — and the error unwinds like a real crash.
func (r *Recorder) CheckpointSeal() ([]byte, error) {
	if err := failpoint.Eval("qlog/seal"); err != nil {
		if r.blackboxPath != "" {
			DumpBlackbox(r.blackboxPath) // best-effort: the run is dying
		}
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.seg.Seal(); err != nil {
		return nil, err
	}
	if err := r.seg.Sync(); err != nil {
		return nil, err
	}
	return json.Marshal(recorderState{Offset: r.seg.SealedBytes(), Events: r.events})
}

// RestoreCheckpoint implements checkpoint.Part for a recorder opened over an
// interrupted log (New on the file, not truncated): the torn tail is cut at
// the sealed offset and the next block starts fresh, so the resumed segment
// is byte-identical to an uninterrupted one.
func (r *Recorder) RestoreCheckpoint(state []byte) error {
	var st recorderState
	if err := json.Unmarshal(state, &st); err != nil {
		return fmt.Errorf("qlog: bad resume state: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.seg.Rewind(st.Offset); err != nil {
		return err
	}
	r.events = st.Events
	return nil
}

// Wait joins the block the recorder's writer is still sealing, if any, and
// seals nothing: what a caller abandoning a recorder un-closed, as a kill
// would, needs before it looks at the file. Nil-safe.
//
//rootlint:allow deadcode: the hook measure/chaos_test.go joins a killed run's flight log with before reading it
func (r *Recorder) Wait() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seg.Wait()
}

// Close seals any pending block, flushes the recorder and closes the file
// Flags.Open gave it, if any. Nil-safe so CLI shutdown paths need no
// recorder-enabled branch, and harmless to repeat.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	err := r.seg.Close()
	if r.file != nil {
		err = errors.Join(err, r.file.Close())
	}
	return err
}

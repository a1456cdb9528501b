package qlog_test

// Durability and determinism tests for the flight recorder: record/decode
// round-trips, torn-tail truncation, byte-identical resume, the pure-function
// sampling contract, and the always-on black-box ring.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/qlog"
	"repro/internal/segment"
)

// evServe claims the serve/query kind for this test binary (the production
// claimant lives in dnsserver, which this binary does not link).
var evServe = qlog.NewEvent("serve/query",
	"flow", "fidx", "fate", "verdict", "cache", "bucket", "edns", "do",
	"tc", "class", "rcode")

// emitN records n distinguishable serve/query events, returning the
// (key, subject) pairs in emission order.
func emitN(t *testing.T, rec *qlog.Recorder, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		subj := []byte{byte(i >> 8), byte(i), 0x01, 0x20, 3, 'a', 'b', 'c', 0, 0, 1, 0, 1}
		rec.Emit(evServe, qlog.Key(subj), subj,
			uint64(i), uint64(i%3), 0, 1, uint64(i%2), 1, 1, 0, 0, 0, 0)
	}
}

func TestEmitDecodeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rec, err := qlog.New(&buf, qlog.Sampler{Every: 1}, "")
	if err != nil {
		t.Fatal(err)
	}
	subj := []byte("subject-bytes")
	key := qlog.Key(subj)
	rec.Emit(evServe, key, subj, 7, 2, 1, 3, 1, 2, 1, 1, 1, 2, 5)
	emitN(t, rec, 0, 50)
	if got := rec.Events(); got != 51 {
		t.Fatalf("Events() = %d, want 51", got)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := qlog.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	evs, err := r.Events()
	if err != nil {
		t.Fatal(err)
	}
	if r.Torn() {
		t.Fatalf("clean close decoded as torn: %v", r.TornReason())
	}
	if len(evs) != 51 {
		t.Fatalf("decoded %d events, want 51", len(evs))
	}
	e := evs[0]
	if e.Def().Kind != "serve/query" || e.Key != key || !bytes.Equal(e.Subject, subj) {
		t.Fatalf("envelope mismatch: %+v", e)
	}
	want := []uint64{7, 2, 1, 3, 1, 2, 1, 1, 1, 2, 5}
	for i, v := range want {
		if e.Vals[i] != v {
			t.Fatalf("field %d = %d, want %d", i, e.Vals[i], v)
		}
	}
	if e.Val("rcode") != 5 || e.Val("verdict") != 3 {
		t.Fatalf("Val lookup broken: %+v", e)
	}
	s := e.String()
	for _, frag := range []string{"serve/query", "fate=drop", "verdict=slip", "bucket=4096", "rcode=5"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() = %q, missing %q", s, frag)
		}
	}
}

// TestConcurrentEmitsAcrossAutoSeals: four goroutines emit 40,000 events
// between them, enough to fill the recorder's block a few times over, so
// blocks are handed off to be sealed while the others go on emitting under
// the recorder's mutex. The log decodes to every event exactly once, in
// several blocks; scripts/race.sh runs this under the race detector.
func TestConcurrentEmitsAcrossAutoSeals(t *testing.T) {
	const emitters, each = 4, 10000
	var buf bytes.Buffer
	rec, err := qlog.New(&buf, qlog.Sampler{Every: 1}, "")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			emitN(t, rec, g*each, each)
		}(g)
	}
	wg.Wait()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	sr, err := segment.NewReader(bytes.NewReader(buf.Bytes()), qlog.Magic, qlog.Version)
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for _, err := sr.NextFrame(); err == nil; _, err = sr.NextFrame() {
		frames++
	}
	if frames < 3 {
		t.Fatalf("log holds %d blocks: the emitters never crossed an auto-seal", frames)
	}
	r, err := qlog.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	evs, err := r.Events()
	if err != nil || r.Torn() {
		t.Fatalf("decoding: %v, torn %v (%v)", err, r.Torn(), r.TornReason())
	}
	seen := make([]int, emitters*each)
	for _, e := range evs {
		if flow := e.Val("flow"); flow < uint64(len(seen)) {
			seen[flow]++
		}
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("event %d decoded %d times (%d events in all, want %d)", i, n, len(evs), len(seen))
		}
	}
}

func TestNilRecorderIsOff(t *testing.T) {
	var rec *qlog.Recorder
	if rec.Sampled(123) {
		t.Fatal("nil recorder sampled a key")
	}
	rec.Emit(evServe, 1, nil, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	if rec.Events() != 0 {
		t.Fatal("nil recorder counted an event")
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTornTailTruncates pins the crash-tail contract: chopping bytes off the
// last sealed block decodes as the earlier sealed prefix plus a reported
// tear, never an error and never partial records.
func TestTornTailTruncates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.qlog")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := qlog.New(f, qlog.Sampler{Every: 1}, "")
	if err != nil {
		t.Fatal(err)
	}
	emitN(t, rec, 0, 10)
	if _, err := rec.CheckpointSeal(); err != nil {
		t.Fatal(err)
	}
	emitN(t, rec, 10, 10)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, chop := range []int{1, 3, 17} {
		r, err := qlog.NewReader(bytes.NewReader(full[:len(full)-chop]))
		if err != nil {
			t.Fatal(err)
		}
		evs, err := r.Events()
		if err != nil {
			t.Fatalf("chop %d: torn tail surfaced as error: %v", chop, err)
		}
		if !r.Torn() || r.TornReason() == nil {
			t.Fatalf("chop %d: truncated file not reported torn", chop)
		}
		if len(evs) != 10 {
			t.Fatalf("chop %d: decoded %d events, want the 10 sealed ones", chop, len(evs))
		}
	}
}

// TestOversizeBlockTruncates: a frame with a valid CRC whose few KB inflate
// past segment.MaxBlockBytes is a tear, as in a dataset: the events of the
// blocks before it, a reported tear, no error, and no gigabyte allocated on
// the word of a crafted file.
func TestOversizeBlockTruncates(t *testing.T) {
	var good bytes.Buffer
	rec, err := qlog.New(&good, qlog.Sampler{Every: 1}, "")
	if err != nil {
		t.Fatal(err)
	}
	emitN(t, rec, 0, 10)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	var comp bytes.Buffer
	zw, err := flate.NewWriter(&comp, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(make([]byte, segment.MaxBlockBytes+1))
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	var hdr [segment.FrameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(comp.Len()))
	binary.BigEndian.PutUint32(hdr[4:], crc32.Checksum(comp.Bytes(), crc32.MakeTable(crc32.Castagnoli)))
	binary.BigEndian.PutUint32(hdr[8:], 1)
	bomb := append(append(good.Bytes(), hdr[:]...), comp.Bytes()...)

	r, err := qlog.NewReader(bytes.NewReader(bomb))
	if err != nil {
		t.Fatal(err)
	}
	evs, err := r.Events()
	if err != nil || !r.Torn() || !strings.Contains(r.TornReason().Error(), "inflates past") {
		t.Fatalf("err %v, torn %v (%v); want a clean truncation at the oversize frame", err, r.Torn(), r.TornReason())
	}
	if len(evs) != 10 {
		t.Errorf("decoded %d events, want the 10 before the oversize frame", len(evs))
	}
}

// TestResumeByteIdentity pins the recorder half of the crash-safety story: a
// recording killed after a checkpoint seal and resumed from the checkpoint
// blob produces a file byte-identical to one that was never interrupted.
func TestResumeByteIdentity(t *testing.T) {
	dir := t.TempDir()

	refPath := filepath.Join(dir, "ref.qlog")
	rf, err := os.Create(refPath)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := qlog.New(rf, qlog.Sampler{Every: 1}, "")
	if err != nil {
		t.Fatal(err)
	}
	emitN(t, ref, 0, 20)
	state, err := ref.CheckpointSeal()
	if err != nil {
		t.Fatal(err)
	}
	emitN(t, ref, 20, 20)
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	rf.Close()
	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	// The interrupted twin: same prefix, same checkpoint, then divergent
	// post-checkpoint events that die buffered when the process is "killed"
	// (the recorder is abandoned un-closed, as SIGKILL would leave it).
	path := filepath.Join(dir, "killed.qlog")
	kf, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	killed, err := qlog.New(kf, qlog.Sampler{Every: 1}, "")
	if err != nil {
		t.Fatal(err)
	}
	emitN(t, killed, 0, 20)
	killedState, err := killed.CheckpointSeal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(killedState, state) {
		t.Fatalf("checkpoint blobs diverged: %s vs %s", killedState, state)
	}
	emitN(t, killed, 900, 7) // doomed: never sealed, must not survive resume
	kf.Close()

	rcf, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rcf.Close()
	resumed, err := qlog.New(rcf, qlog.Sampler{Every: 1}, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.RestoreCheckpoint(state); err != nil {
		t.Fatal(err)
	}
	if got := resumed.Events(); got != 20 {
		t.Fatalf("resumed Events() = %d, want the checkpointed 20", got)
	}
	emitN(t, resumed, 20, 20)
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, refBytes) {
		t.Fatalf("resumed flight log differs from uninterrupted reference: %d vs %d bytes", len(got), len(refBytes))
	}
	if resumed.Events() != 40 {
		t.Fatalf("resumed final Events() = %d, want 40", resumed.Events())
	}
}

func TestResumeRejectsBadState(t *testing.T) {
	var buf bytes.Buffer
	rec, err := qlog.New(&buf, qlog.Sampler{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.RestoreCheckpoint([]byte("not json")); err == nil {
		t.Fatal("garbage resume state accepted")
	}
}

// TestReaderRefusesOldVersion pins the format breaks: version 2 dropped
// serve/query's shed field and version 3 the client/query kind, so an older
// log would decode with fields or kinds shifted by one. It is refused at open
// with a version error.
func TestReaderRefusesOldVersion(t *testing.T) {
	var buf bytes.Buffer
	if _, err := segment.NewWriter(&buf, qlog.Magic, qlog.Version-1); err != nil {
		t.Fatal(err)
	}
	_, err := qlog.NewReader(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "unsupported version "+strconv.Itoa(qlog.Version-1)) {
		t.Fatalf("version-%d log opened with err = %v, want an unsupported-version error", qlog.Version-1, err)
	}
}

// TestSamplerIsPureFunction pins the determinism contract: the sampling
// decision depends only on (Seed, Every, key) — two samplers with equal
// parameters select identical key sets, and the special rates behave.
func TestSamplerIsPureFunction(t *testing.T) {
	off := qlog.Sampler{Every: 0}
	all := qlog.Sampler{Every: 1}
	a := qlog.Sampler{Seed: 7, Every: 64}
	b := qlog.Sampler{Seed: 7, Every: 64}
	c := qlog.Sampler{Seed: 8, Every: 64}
	hits, diverged := 0, false
	for i := 0; i < 64_000; i++ {
		key := qlog.KeyVals(uint64(i))
		if off.Sampled(key) {
			t.Fatal("Every=0 sampled a key")
		}
		if !all.Sampled(key) {
			t.Fatal("Every=1 skipped a key")
		}
		if a.Sampled(key) != b.Sampled(key) {
			t.Fatal("equal samplers disagreed: the client/server join contract is broken")
		}
		if a.Sampled(key) {
			hits++
		}
		if a.Sampled(key) != c.Sampled(key) {
			diverged = true
		}
	}
	// 64k keys at 1/64: expect ~1000, allow wide slack.
	if hits < 700 || hits > 1300 {
		t.Fatalf("1/64 sampler hit %d of 64000 keys", hits)
	}
	if !diverged {
		t.Fatal("seed has no effect on the sampled subset")
	}
}

func TestParseSampler(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want qlog.Sampler
	}{
		{"", qlog.Sampler{Every: 1}},
		{"every=64", qlog.Sampler{Every: 64}},
		{"every=64,seed=7", qlog.Sampler{Seed: 7, Every: 64}},
		{"seed=3", qlog.Sampler{Seed: 3, Every: 1}},
		{"every=0", qlog.Sampler{Every: 0}},
	} {
		var got, back qlog.Sampler
		if err := got.Set(tc.spec); err != nil {
			t.Fatalf("Set(%q): %v", tc.spec, err)
		}
		if got != tc.want {
			t.Fatalf("Set(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
		if err := back.Set(got.String()); err != nil || back != got {
			t.Fatalf("round trip of %q through %q: %+v (%v)", tc.spec, got, back, err)
		}
	}
	for _, bad := range []string{"bogus", "every=x", "rate=2", "every=1,"} {
		if err := new(qlog.Sampler).Set(bad); err == nil {
			t.Fatalf("Set(%q) accepted", bad)
		}
	}
}

// TestQuestionEnd pins the join-subject extraction against hand-built wires.
func TestQuestionEnd(t *testing.T) {
	// Header (id=0x1234, rd, qdcount=1) + "abc.example." + A/IN.
	q := []byte{
		0x12, 0x34, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0,
		3, 'a', 'b', 'c', 7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 0,
		0, 1, 0, 1,
	}
	if got := qlog.QuestionEnd(q); got != len(q) {
		t.Fatalf("QuestionEnd = %d, want %d", got, len(q))
	}
	// Trailing bytes (EDNS OPT) do not move the boundary.
	if got := qlog.QuestionEnd(append(append([]byte{}, q...), 0, 0, 41, 4, 0xd0, 0, 0, 0, 0, 0, 0)); got != len(q) {
		t.Fatalf("QuestionEnd with additional = %d, want %d", got, len(q))
	}
	bad := [][]byte{
		nil,
		q[:11],                               // short header
		q[:len(q)-2],                         // truncated type/class
		q[:14],                               // truncated label
		{0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0}, // qdcount=2
	}
	ptr := append([]byte{}, q[:12]...)
	ptr = append(ptr, 0xC0, 0x0C, 0, 1, 0, 1) // compression pointer in a query
	bad = append(bad, ptr)
	for i, w := range bad {
		if got := qlog.QuestionEnd(w); got != -1 {
			t.Fatalf("bad wire %d: QuestionEnd = %d, want -1", i, got)
		}
	}
}

func TestKeyCoversIDAndQuestion(t *testing.T) {
	a := []byte{0x12, 0x34, 0, 0, 0, 1, 3, 'f', 'o', 'o', 0}
	b := append([]byte{}, a...)
	b[1] = 0x35 // different message ID
	if qlog.Key(a) == qlog.Key(b) {
		t.Fatal("key ignores the message ID")
	}
	if qlog.Key(a) != qlog.Key(append([]byte{}, a...)) {
		t.Fatal("key is not a pure function of the bytes")
	}
}

// TestBlackboxDump pins the crash artifact: the ring holds the recent
// events, dumps as a standard decodable qlog segment, and an empty ring
// still produces a valid (empty) segment.
func TestBlackboxDump(t *testing.T) {
	dir := t.TempDir()
	qlog.ResetBlackbox()
	defer qlog.ResetBlackbox()

	var buf bytes.Buffer
	rec, err := qlog.New(&buf, qlog.Sampler{Every: 1}, "")
	if err != nil {
		t.Fatal(err)
	}
	emitN(t, rec, 0, 25)

	path := filepath.Join(dir, "ring.blackbox")
	if err := qlog.DumpBlackbox(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := qlog.NewReader(f)
	if err != nil {
		t.Fatalf("black-box dump is not a qlog segment: %v", err)
	}
	evs, err := r.Events()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 25 {
		t.Fatalf("black-box dump holds %d events, want 25", len(evs))
	}

	qlog.ResetBlackbox()
	empty := filepath.Join(dir, "empty.blackbox")
	if err := qlog.DumpBlackbox(empty); err != nil {
		t.Fatal(err)
	}
	ef, err := os.Open(empty)
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	er, err := qlog.NewReader(ef)
	if err != nil {
		t.Fatalf("empty black-box dump is not a valid segment: %v", err)
	}
	eevs, err := er.Events()
	if err != nil || len(eevs) != 0 {
		t.Fatalf("empty dump decoded as %d events, err %v", len(eevs), err)
	}
}

// TestSortCanonical pins the canonical order diff/identity checks rely on:
// kind first, then key, values, subject — independent of append order.
func TestSortCanonical(t *testing.T) {
	mk := func(kind int, key uint64, subj string) qlog.Event {
		return qlog.Event{
			Kind: kind, Key: key, Subject: []byte(subj),
			Vals: make([]uint64, len(qlog.Registry[kind].Fields)),
		}
	}
	evs := []qlog.Event{
		mk(1, 9, "b"), mk(0, 5, "x"), mk(1, 2, "a"), mk(0, 5, "w"), mk(0, 1, "z"),
	}
	qlog.SortCanonical(evs)
	wantOrder := []struct {
		kind int
		key  uint64
		subj string
	}{
		{0, 1, "z"}, {0, 5, "w"}, {0, 5, "x"}, {1, 2, "a"}, {1, 9, "b"},
	}
	for i, w := range wantOrder {
		e := evs[i]
		if e.Kind != w.kind || e.Key != w.key || string(e.Subject) != w.subj {
			t.Fatalf("position %d: got kind=%d key=%d subj=%q, want %+v", i, e.Kind, e.Key, e.Subject, w)
		}
	}
	if qlog.Compare(evs[0], evs[0]) != 0 {
		t.Fatal("Compare(x, x) != 0")
	}
	if qlog.Compare(evs[0], evs[1]) >= 0 || qlog.Compare(evs[1], evs[0]) <= 0 {
		t.Fatal("Compare is not antisymmetric")
	}
}

// FuzzQlogDecode throws arbitrary bytes at the frame decoder: it must never
// panic, and whatever decodes from a recorded seed corpus must round-trip
// through the envelope invariants (registered kind, full field list).
func FuzzQlogDecode(f *testing.F) {
	var buf bytes.Buffer
	rec, err := qlog.New(&buf, qlog.Sampler{Every: 1}, "")
	if err != nil {
		f.Fatal(err)
	}
	subj := []byte{0x12, 0x34, 0x01, 0x20, 3, 'a', 'b', 'c', 0, 0, 1, 0, 1}
	rec.Emit(evServe, qlog.Key(subj), subj, 1, 2, 0, 1, 1, 2, 1, 1, 0, 0, 0)
	if err := rec.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:len(buf.Bytes())-3])
	f.Add([]byte("RGQL\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := qlog.NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		evs, _ := r.Events()
		for _, e := range evs {
			if e.Kind < 0 || e.Kind >= len(qlog.Registry) {
				t.Fatalf("decoded unregistered kind %d", e.Kind)
			}
			if len(e.Vals) != len(e.Def().Fields) {
				t.Fatalf("kind %d decoded with %d vals, schema has %d", e.Kind, len(e.Vals), len(e.Def().Fields))
			}
		}
	})
}

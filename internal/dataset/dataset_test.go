package dataset

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dnssec"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/rss"
	"repro/internal/segment"
	"repro/internal/topology"
	"repro/internal/vantage"
)

func testWorld(t testing.TB) *measure.World {
	t.Helper()
	cfg := measure.DefaultConfig()
	cfg.TLDCount = 10
	topoCfg := topology.Config{
		Seed: 8,
		StubsPerRegion: map[geo.Region]int{
			geo.Africa: 3, geo.Asia: 5, geo.Europe: 15,
			geo.NorthAmerica: 8, geo.SouthAmerica: 4, geo.Oceania: 4,
		},
		Tier2PerRegion: map[geo.Region]int{
			geo.Africa: 2, geo.Asia: 2, geo.Europe: 4,
			geo.NorthAmerica: 3, geo.SouthAmerica: 2, geo.Oceania: 2,
		},
	}
	vpCfg := vantage.DefaultConfig()
	vpCfg.Scale = 30
	w, err := measure.NewWorld(cfg, topoCfg, vpCfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// collector keeps events for comparison.
type collector struct {
	probes    []measure.ProbeEvent
	transfers []measure.TransferEvent
}

func (c *collector) HandleProbe(e measure.ProbeEvent)       { c.probes = append(c.probes, e) }
func (c *collector) HandleTransfer(e measure.TransferEvent) { c.transfers = append(c.transfers, e) }

// TestRecordReplayRoundTrip records one campaign into two writers, one whose
// every record opens a block and one at the default block size, and replays
// each: both give back exactly the events a handler beside them saw, and a
// skewed VP's transfers keep their validation error's class. The first
// recording proves that a block's first record carries everything; in the
// second, most probes leave their site or path out.
func TestRecordReplayRoundTrip(t *testing.T) {
	w := testWorld(t)
	cfg := measure.DefaultConfig()
	cfg.Start = time.Date(2023, 10, 2, 21, 0, 0, 0, time.UTC) // covers a skew window
	cfg.End = cfg.Start.Add(3 * time.Hour)
	cfg.Scale = 1
	cfg.TLDCount = 10
	var single, whole bytes.Buffer
	singles, err := NewWriter(&single)
	if err != nil {
		t.Fatal(err)
	}
	singles.BlockBytes = 1
	wholes, err := NewWriter(&whole)
	if err != nil {
		t.Fatal(err)
	}
	seen := &keeper{}
	if err := measure.NewCampaign(cfg, w).Run(singles, wholes, seen); err != nil {
		t.Fatal(err)
	}
	events := len(seen.probes) + len(seen.transfers)
	for _, wr := range []*Writer{singles, wholes} {
		if err := wr.Close(); err != nil {
			t.Fatal(err)
		}
		if wr.Probes != len(seen.probes) || wr.Transfers != len(seen.transfers) {
			t.Fatalf("writer counts %d/%d vs %d/%d", wr.Probes, wr.Transfers, len(seen.probes), len(seen.transfers))
		}
	}
	var want decoded
	for _, e := range seen.probes {
		want.probes = append(want.probes, asReplayed(w.Population, e))
	}
	for _, e := range seen.transfers {
		want.transfers = append(want.transfers, transferAsReplayed(w.Population, e))
	}

	for name, data := range map[string][]byte{"a block a record": single.Bytes(), "default blocks": whole.Bytes()} {
		r, err := NewReader(bytes.NewReader(data), w.Population)
		if err != nil {
			t.Fatal(err)
		}
		blocks, repeats := 0, 0
		dec := r.newDecoder()
		for f, err := r.NextFrame(); err == nil; f, err = r.NextFrame() {
			var b block
			dec.decode(f, &b)
			for _, rc := range b.recs {
				if rc.flags&(flagSameSite|flagSamePath) != 0 {
					repeats++
				}
			}
			blocks++
		}
		switch {
		case name == "a block a record" && (blocks != events || repeats != 0):
			t.Errorf("%s: %d blocks for %d events, %d records leave something out", name, blocks, events, repeats)
		case name == "default blocks" && repeats < len(seen.probes)/2:
			t.Errorf("%s: %d of %d probes leave their site or path out", name, repeats, len(seen.probes))
		}

		r, err = NewReader(bytes.NewReader(data), w.Population)
		if err != nil {
			t.Fatal(err)
		}
		var got keeper
		if _, _, err := r.Replay(&got); err != nil || r.Torn() {
			t.Fatalf("%s: err %v, torn %v", name, err, r.Torn())
		}
		if !sameEvents(decoded{probes: got.probes, transfers: got.transfers}, want) {
			t.Errorf("%s: the replay differs from what the campaign delivered", name)
		}
		skewSeen := false
		for _, e := range got.transfers {
			if e.Fault == faults.ClockSkew {
				skewSeen = true
				if !errors.Is(e.DNSSECErr, dnssec.ErrSignatureNotIncepted) {
					t.Fatalf("%s: a skewed transfer replays with %v", name, e.DNSSECErr)
				}
			}
		}
		if !skewSeen {
			t.Errorf("%s: the window produced no skew faults; widen it", name)
		}
	}
}

func TestCompressionEffective(t *testing.T) {
	w := testWorld(t)
	cfg := measure.DefaultConfig()
	cfg.Start = time.Date(2023, 8, 1, 0, 0, 0, 0, time.UTC)
	cfg.End = cfg.Start.Add(4 * time.Hour)
	cfg.Scale = 1
	cfg.TLDCount = 10
	var buf bytes.Buffer
	writer, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := measure.NewCampaign(cfg, w).Run(writer); err != nil {
		t.Fatal(err)
	}
	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}
	events := writer.Probes + writer.Transfers
	bytesPerEvent := float64(buf.Len()) / float64(events)
	// The paper compresses 7.7B queries + 169M traceroutes to ~0.5 TB; our
	// dictionary+gzip format should stay well under 64 bytes per event.
	if bytesPerEvent > 64 {
		t.Errorf("%.1f bytes/event; dictionary compression ineffective", bytesPerEvent)
	}
	t.Logf("%d events in %d bytes (%.1f B/event)", events, buf.Len(), bytesPerEvent)
}

// synthPop is a lightweight population for framing-level tests that never
// inspect VP fields.
func synthPop() *vantage.Population {
	return &vantage.Population{VPs: make([]vantage.VP, 8)}
}

func TestReaderRejectsGarbage(t *testing.T) {
	pop := synthPop()
	if _, err := NewReader(bytes.NewReader([]byte("not a dataset")), pop); err == nil {
		t.Error("garbage accepted")
	}
	// A v1 recording (one gzip stream; no writer since PR 3) is refused like
	// any other file that is not a dataset.
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write([]byte("XXXX"))
	gz.Close()
	if _, err := NewReader(&buf, pop); !errors.Is(err, segment.ErrBadMagic) {
		t.Errorf("v1 gzip: err = %v, want segment.ErrBadMagic", err)
	}
	// Right magic, future version, and the version before this one.
	future := append([]byte(magic), 0x7f)
	if _, err := NewReader(bytes.NewReader(future), pop); err == nil {
		t.Error("future version accepted")
	}
	if _, err := NewReader(bytes.NewReader(version3File(t)), pop); err == nil || !strings.Contains(err.Error(), "unsupported version 3") {
		t.Errorf("version 3: err = %v, want unsupported version 3", err)
	}
}

// version3File is how a version-3 recording opens: a description frame.
func version3File(t *testing.T) []byte {
	var buf bytes.Buffer
	w, err := segment.NewWriter(&buf, magic, 3)
	if err != nil {
		t.Fatal(err)
	}
	desc := []byte(`{"seed":1}`)
	w.Uvarint(recDescription)
	w.Uvarint(uint64(len(desc)))
	w.Raw(desc)
	w.EndRecord()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// synthProbe builds a deterministic probe event stream for framing tests.
func synthProbe(i int) measure.ProbeEvent {
	targets := rss.AllServiceAddrs()
	return measure.ProbeEvent{
		Tick:         measure.Tick{Index: i, Time: time.Unix(int64(1696118400+60*i), 0).UTC()},
		VPIdx:        i % 8,
		Target:       targets[i%len(targets)],
		SiteID:       "site-" + string(rune('a'+i%7)),
		Identifier:   "ns1.example",
		Facility:     "fac-" + string(rune('a'+i%3)),
		RTTms:        float64(i%120) + 0.25,
		ASPath:       []int{64500, 64501 + i%4, 64510},
		SecondToLast: "router-" + string(rune('a'+i%5)),
		STLOK:        i%2 == 0,
	}
}

// writeSynthFile records n synthetic probes with a small block size and
// returns the raw bytes.
func writeSynthFile(t testing.TB, n, blockBytes int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.BlockBytes = blockBytes
	for i := 0; i < n; i++ {
		w.HandleProbe(synthProbe(i))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// walkFrames parses the sealed-block framing, returning each frame's start
// offset and record count. It fails the test on any inconsistency, so it
// doubles as a structural check of the writer's output.
func walkFrames(t *testing.T, data []byte) (starts []int, counts []uint32) {
	t.Helper()
	if string(data[:len(magic)]) != magic {
		t.Fatal("bad magic in synthetic file")
	}
	v, n := binary.Uvarint(data[len(magic):])
	if n <= 0 || v != version {
		t.Fatalf("bad version varint (%d, %d)", v, n)
	}
	off := len(magic) + n
	for off < len(data) {
		if off+frameHeaderLen > len(data) {
			t.Fatalf("trailing %d bytes are not a frame", len(data)-off)
		}
		starts = append(starts, off)
		clen := binary.BigEndian.Uint32(data[off:])
		counts = append(counts, binary.BigEndian.Uint32(data[off+8:]))
		off += frameHeaderLen + int(clen)
	}
	if off != len(data) {
		t.Fatalf("frame walk overshot: %d != %d", off, len(data))
	}
	return starts, counts
}

// countingHandler tallies replayed events.
type countingHandler struct{ probes, transfers int }

func (c *countingHandler) HandleProbe(measure.ProbeEvent)       { c.probes++ }
func (c *countingHandler) HandleTransfer(measure.TransferEvent) { c.transfers++ }

// TestTornTailEveryOffset truncates a recording at every byte offset inside
// its final block and asserts the Reader recovers exactly the sealed prefix:
// no error, Torn() set, and precisely the records of the earlier blocks.
func TestTornTailEveryOffset(t *testing.T) {
	const events = 160
	data := writeSynthFile(t, events, 1024)
	starts, counts := walkFrames(t, data)
	if len(starts) < 3 {
		t.Fatalf("want >=3 blocks for a meaningful tail test, got %d", len(starts))
	}
	lastStart := starts[len(starts)-1]
	sealedRecords := 0
	for _, c := range counts[:len(counts)-1] {
		sealedRecords += int(c)
	}
	pop := synthPop()

	// The intact file replays everything, un-torn.
	full := &countingHandler{}
	r, err := NewReader(bytes.NewReader(data), pop)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Replay(full); err != nil || r.Torn() {
		t.Fatalf("intact replay: err=%v torn=%v", err, r.Torn())
	}
	if full.probes != events {
		t.Fatalf("intact replay saw %d/%d probes", full.probes, events)
	}

	// Truncation exactly at the last sealed boundary is a clean end.
	r, err = NewReader(bytes.NewReader(data[:lastStart]), pop)
	if err != nil {
		t.Fatal(err)
	}
	h := &countingHandler{}
	if _, _, err := r.Replay(h); err != nil {
		t.Fatal(err)
	}
	if r.Torn() || h.probes != sealedRecords {
		t.Fatalf("boundary truncation: torn=%v probes=%d want %d", r.Torn(), h.probes, sealedRecords)
	}

	// Every cut inside the final block must recover the sealed prefix.
	for cut := lastStart + 1; cut < len(data); cut++ {
		r, err := NewReader(bytes.NewReader(data[:cut]), pop)
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		h := &countingHandler{}
		probes, _, err := r.Replay(h)
		if err != nil {
			t.Fatalf("cut %d: replay error %v (torn tails must truncate cleanly)", cut, err)
		}
		if !r.Torn() {
			t.Fatalf("cut %d: torn tail not flagged", cut)
		}
		if r.TornReason() == nil {
			t.Fatalf("cut %d: no torn reason", cut)
		}
		if probes != sealedRecords || h.probes != sealedRecords {
			t.Fatalf("cut %d: recovered %d records, want sealed prefix %d", cut, probes, sealedRecords)
		}
	}
}

// TestCorruptBlockTruncates flips one payload byte of the final block: the
// CRC catches it and the Reader truncates to the sealed prefix.
func TestCorruptBlockTruncates(t *testing.T) {
	data := writeSynthFile(t, 160, 1024)
	starts, counts := walkFrames(t, data)
	lastStart := starts[len(starts)-1]
	sealedRecords := 0
	for _, c := range counts[:len(counts)-1] {
		sealedRecords += int(c)
	}
	corrupt := append([]byte(nil), data...)
	corrupt[lastStart+frameHeaderLen+3] ^= 0x40

	r, err := NewReader(bytes.NewReader(corrupt), synthPop())
	if err != nil {
		t.Fatal(err)
	}
	h := &countingHandler{}
	probes, _, err := r.Replay(h)
	if err != nil {
		t.Fatalf("corrupt tail must truncate, got error %v", err)
	}
	if !r.Torn() || !strings.Contains(r.TornReason().Error(), "CRC") {
		t.Fatalf("torn=%v reason=%v, want CRC mismatch", r.Torn(), r.TornReason())
	}
	if probes != sealedRecords {
		t.Fatalf("recovered %d records, want %d", probes, sealedRecords)
	}
}

// TestResumeWriterByteIdentical interrupts a recording after a checkpoint
// seal — leaving both a sealed-but-uncheckpointed block and torn garbage on
// disk — resumes from the checkpoint state, and demands the final file be
// byte-identical to an uninterrupted recording with the same seal cadence.
func TestResumeWriterByteIdentical(t *testing.T) {
	const blockBytes = 1024

	// Reference: uninterrupted, one checkpoint seal after 100 events.
	var ref bytes.Buffer
	w, err := NewWriter(&ref)
	if err != nil {
		t.Fatal(err)
	}
	w.BlockBytes = blockBytes
	for i := 0; i < 100; i++ {
		w.HandleProbe(synthProbe(i))
	}
	refState, err := w.CheckpointSeal()
	if err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 200; i++ {
		w.HandleProbe(synthProbe(i))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: same 100 events, checkpoint, then 50 more events
	// sealed *after* the checkpoint, then a torn partial write, then crash.
	path := filepath.Join(t.TempDir(), "interrupted.dat")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	w2.BlockBytes = blockBytes
	for i := 0; i < 100; i++ {
		w2.HandleProbe(synthProbe(i))
	}
	state, err := w2.CheckpointSeal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(state, refState) {
		t.Fatalf("checkpoint states diverge: %s vs %s", state, refState)
	}
	for i := 100; i < 150; i++ {
		w2.HandleProbe(synthProbe(i))
	}
	if err := w2.Seal(); err != nil { // durable but not checkpointed
		t.Fatal(err)
	}
	f.Write([]byte("partial frame torn by the crash"))
	f.Close() // no Writer.Close: the process died

	// Restart: reopen the file without truncating, restore from the
	// checkpoint blob, and replay the tail events.
	f2, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	w3, err := NewWriter(f2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w3.RestoreCheckpoint(state); err != nil {
		t.Fatal(err)
	}
	w3.BlockBytes = blockBytes
	if w3.Probes != 100 || w3.Transfers != 0 {
		t.Fatalf("resumed counters %d/%d", w3.Probes, w3.Transfers)
	}
	for i := 100; i < 200; i++ {
		w3.HandleProbe(synthProbe(i))
	}
	if err := w3.Close(); err != nil {
		t.Fatal(err)
	}
	f2.Close()

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref.Bytes()) {
		t.Fatalf("resumed file differs from uninterrupted reference: %d vs %d bytes", len(got), ref.Len())
	}
}

// TestTargetSlotsRoundTrip: a record names its target by slot, and every
// target the battery probes replays as itself. A target without a slot is
// written as the slot past the last, which replay refuses.
func TestTargetSlotsRoundTrip(t *testing.T) {
	record := func(targets []rss.ServiceAddr) *Reader {
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i, target := range targets {
			p := synthProbe(i)
			p.Target = target
			w.HandleProbe(p)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(&buf, synthPop())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	all := rss.AllServiceAddrs()
	var got keeper
	if _, _, err := record(all).Replay(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.probes) != len(all) {
		t.Fatalf("replayed %d of %d targets", len(got.probes), len(all))
	}
	for i, p := range got.probes {
		if p.Target != all[i] {
			t.Errorf("target %+v replays as %+v", all[i], p.Target)
		}
	}
	for _, bad := range []rss.ServiceAddr{{Letter: "n"}, {Letter: "a", Old: true}, {Letter: "b", Family: 2}} {
		var h countingHandler
		if _, _, err := record([]rss.ServiceAddr{bad}).Replay(&h); err == nil || !strings.Contains(err.Error(), "target slot out of range") || h.probes != 0 {
			t.Errorf("a probe of %+v: err %v, %d delivered; want it refused", bad, err, h.probes)
		}
	}
}

// TestWriterEncodesWithoutAllocating: on a warm block — its buffer grown, the
// event's strings already in the block dictionary — encoding a probe or a
// transfer allocates nothing. The campaign delivers every event through
// these two calls on one goroutine.
func TestWriterEncodesWithoutAllocating(t *testing.T) {
	w, err := NewWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	tick := measure.Tick{Index: 7, Time: time.Date(2023, 10, 2, 21, 0, 0, 0, time.UTC)}
	target := rss.AllServiceAddrs()[3]
	probe := measure.ProbeEvent{
		Tick: tick, VPIdx: 11, Target: target,
		SiteID: "b-ams1", Identifier: "ams", Facility: "ix-ams", SiteCity: geo.Cities()[0],
		RTTms: 12.5, ASPath: []int{64512, 3356, 64999}, SecondToLast: "r2.as3356", STLOK: true,
	}
	transfer := measure.TransferEvent{
		Tick: tick, VPIdx: 11, Target: target, Serial: 2023100201,
		Fault: faults.ClockSkew, DNSSECErr: dnssec.ErrSignatureNotIncepted,
	}
	w.HandleProbe(probe)
	w.HandleTransfer(transfer)
	if allocs := testing.AllocsPerRun(1000, func() { w.HandleProbe(probe) }); allocs != 0 {
		t.Errorf("HandleProbe on a warm block: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { w.HandleTransfer(transfer) }); allocs != 0 {
		t.Errorf("HandleTransfer on a warm block: %v allocs/op, want 0", allocs)
	}
}

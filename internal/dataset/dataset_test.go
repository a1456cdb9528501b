package dataset

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
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

func TestRecordReplayRoundTrip(t *testing.T) {
	w := testWorld(t)
	cfg := measure.DefaultConfig()
	cfg.Start = time.Date(2023, 10, 2, 21, 0, 0, 0, time.UTC) // covers a skew window
	cfg.End = cfg.Start.Add(3 * time.Hour)
	cfg.Scale = 1
	cfg.TLDCount = 10
	campaign := measure.NewCampaign(cfg, w)

	var buf bytes.Buffer
	writer, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	orig := &collector{}
	if err := campaign.Run(writer, orig); err != nil {
		t.Fatal(err)
	}
	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}
	if writer.Probes != len(orig.probes) || writer.Transfers != len(orig.transfers) {
		t.Fatalf("writer counts %d/%d vs %d/%d",
			writer.Probes, writer.Transfers, len(orig.probes), len(orig.transfers))
	}

	reader, err := NewReader(&buf, w.Population)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	replayed := &collector{}
	probes, transfers, err := reader.Replay(replayed)
	if err != nil {
		t.Fatal(err)
	}
	if probes != len(orig.probes) || transfers != len(orig.transfers) {
		t.Fatalf("replayed %d/%d, want %d/%d", probes, transfers,
			len(orig.probes), len(orig.transfers))
	}

	// Every probe field the analyses use must survive the round trip.
	for i := range orig.probes {
		o, r := orig.probes[i], replayed.probes[i]
		if o.Tick.Index != r.Tick.Index || !o.Tick.Time.Equal(r.Tick.Time) {
			t.Fatalf("probe %d tick: %+v vs %+v", i, o.Tick, r.Tick)
		}
		if o.VPIdx != r.VPIdx || o.VP.ID != r.VP.ID {
			t.Fatalf("probe %d VP mismatch", i)
		}
		if o.Target != r.Target || o.Lost != r.Lost {
			t.Fatalf("probe %d target/lost mismatch", i)
		}
		if o.Lost {
			continue
		}
		if o.SiteID != r.SiteID || o.Identifier != r.Identifier ||
			o.Facility != r.Facility || o.SiteKind != r.SiteKind {
			t.Fatalf("probe %d site fields: %+v vs %+v", i, o, r)
		}
		if o.SiteCity.IATA != r.SiteCity.IATA {
			t.Fatalf("probe %d city %s vs %s", i, o.SiteCity.IATA, r.SiteCity.IATA)
		}
		if diff := o.RTTms - r.RTTms; diff > 0.011 || diff < -0.011 {
			t.Fatalf("probe %d RTT %.4f vs %.4f", i, o.RTTms, r.RTTms)
		}
		if !reflect.DeepEqual(o.ASPath, r.ASPath) {
			t.Fatalf("probe %d path %v vs %v", i, o.ASPath, r.ASPath)
		}
		if o.SecondToLast != r.SecondToLast || o.STLOK != r.STLOK {
			t.Fatalf("probe %d STL mismatch", i)
		}
	}
	// Transfer classifications must survive via errors.Is.
	skewSeen := false
	for i := range orig.transfers {
		o, r := orig.transfers[i], replayed.transfers[i]
		if o.Serial != r.Serial || o.Fault != r.Fault || o.Lost != r.Lost {
			t.Fatalf("transfer %d fields mismatch", i)
		}
		if o.Fault == faults.ClockSkew {
			skewSeen = true
			if !errors.Is(r.DNSSECErr, dnssec.ErrSignatureNotIncepted) {
				t.Fatalf("transfer %d lost classification: %v", i, r.DNSSECErr)
			}
		}
		if (o.Bitflip == nil) != (r.Bitflip == nil) {
			t.Fatalf("transfer %d bitflip presence mismatch", i)
		}
	}
	if !skewSeen {
		t.Error("test window produced no skew faults; widen it")
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
	// Right magic, future version.
	future := append([]byte(magic), 0x7f)
	if _, err := NewReader(bytes.NewReader(future), pop); err == nil {
		t.Error("future version accepted")
	}
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

func TestTargetKeyBijective(t *testing.T) {
	seen := map[string]bool{}
	for _, tgt := range rss.AllServiceAddrs() {
		k := tgt.Key()
		if seen[k] {
			t.Fatalf("duplicate key %q", k)
		}
		seen[k] = true
		slot, ok := slotOf(k)
		if !ok || targets[slot] != tgt {
			t.Fatalf("key %q does not round trip", k)
		}
	}
	for _, k := range []string{"", "b", "b4x", "b4oo", "n4", "a4o", "b5", "B4", "\xff6"} {
		if slot, ok := slotOf(k); ok {
			t.Errorf("key %q, which no target has, reads as %+v", k, targets[slot])
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

package dataset

// What makes recycling safe, pinned. The decoder reuses its inflater, its
// record reader and the records a block decodes into, and the drain builds
// each event from its record as it delivers it; what an event points to (a
// string, an AS path, a Bitflip) is never reused, nothing is sized from the
// frame header beyond what the payload could bear out, and every goroutine
// is joined on every return.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/measure"
	"repro/internal/segment"
	"repro/internal/vantage"
)

// frameHeaderLen is the fixed per-block frame: length, CRC, record count.
const frameHeaderLen = segment.FrameHeaderLen

// keeper keeps every event by value, as a handler may.
type keeper struct {
	probes    []measure.ProbeEvent
	transfers []measure.TransferEvent
}

func (k *keeper) HandleProbe(e measure.ProbeEvent)       { k.probes = append(k.probes, e) }
func (k *keeper) HandleTransfer(e measure.TransferEvent) { k.transfers = append(k.transfers, e) }

// asReplayed is what a recorded probe reads back as: its tick to the second,
// its site city by metro code; a lost probe
// keeps its flags and nothing else.
func asReplayed(pop *vantage.Population, e measure.ProbeEvent) measure.ProbeEvent {
	e.Tick.Time = time.Unix(e.Tick.Time.Unix(), 0).UTC()
	e.VP = &pop.VPs[e.VPIdx]
	if e.Lost {
		return measure.ProbeEvent{Tick: e.Tick, VP: e.VP, VPIdx: e.VPIdx, Target: e.Target,
			Lost: true, Degraded: e.Degraded, SiteKind: e.SiteKind, STLOK: e.STLOK}
	}
	e.SiteCity = catalog[e.SiteCity.IATA]
	return e
}

// transferAsReplayed is what a recorded transfer reads back as: its tick to
// the second, each validation error as its class's sentinel, and a bitflip
// without its record index; a lost transfer keeps its flags and nothing else.
func transferAsReplayed(pop *vantage.Population, e measure.TransferEvent) measure.TransferEvent {
	e.Tick.Time = time.Unix(e.Tick.Time.Unix(), 0).UTC()
	e.VP = &pop.VPs[e.VPIdx]
	if e.Lost {
		return measure.TransferEvent{Tick: e.Tick, VP: e.VP, VPIdx: e.VPIdx, Target: e.Target,
			Lost: true, Degraded: e.Degraded, ComparisonMismatch: e.ComparisonMismatch}
	}
	e.DNSSECErr = rebuildErr(classifyErr(e.DNSSECErr))
	e.ZonemdErr = rebuildErr(classifyErr(e.ZonemdErr))
	if e.Bitflip != nil {
		e.Bitflip = &faults.Bitflip{Before: e.Bitflip.Before, After: e.Bitflip.After}
	}
	return e
}

// TestReplayedEventsOutliveTheirBlocks: a handler that keeps every event
// replays a file of several times more blocks than there are jobs to decode
// them into, and after ReplayWith has returned — every block's records,
// dictionary and AS arena overwritten many times, every inflate buffer too —
// what it kept still equals what was recorded. A string that aliased the
// inflate buffer, an AS path cut from a recycled arena or a recycled Bitflip
// shows here.
func TestReplayedEventsOutliveTheirBlocks(t *testing.T) {
	pop := synthPop()
	var want keeper
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.BlockBytes = 1024
	for i := 0; i < 2400; i++ {
		p := synthProbe(i)
		p.SiteID = fmt.Sprintf("site-%d", i) // strings no other block holds
		p.ASPath = []int{64500 + i, 3356 + i%5, 64999 - i}[:1+i%3]
		p.Lost = i%11 == 0
		w.HandleProbe(p)
		want.probes = append(want.probes, asReplayed(pop, p))
		if i%3 == 0 {
			tr := synthTransfer(i)
			if tr.Bitflip != nil {
				tr.Bitflip.After = fmt.Sprintf("a.tld. A 1.2.3.%d", i)
			}
			w.HandleTransfer(tr)
			want.transfers = append(want.transfers, transferAsReplayed(pop, tr))
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	starts, _ := walkFrames(t, buf.Bytes())

	for _, workers := range []int{1, 4} {
		if jobs := workers*3 + 1; len(starts) < 4*(jobs+workers+1) {
			t.Fatalf("%d blocks are too few to recycle %d jobs several times over", len(starts), jobs)
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()), pop)
		if err != nil {
			t.Fatal(err)
		}
		var got keeper
		if _, _, err := r.ReplayWith(ReplayOptions{Workers: workers}, &got); err != nil || r.Torn() {
			t.Fatalf("workers=%d: err %v, torn %v", workers, err, r.Torn())
		}
		if len(got.probes) != len(want.probes) || len(got.transfers) != len(want.transfers) {
			t.Fatalf("workers=%d: kept %d probes and %d transfers of %d and %d",
				workers, len(got.probes), len(got.transfers), len(want.probes), len(want.transfers))
		}
		for i := range want.probes {
			if !reflect.DeepEqual(got.probes[i], want.probes[i]) {
				t.Fatalf("workers=%d: probe %d reads\n%+v\nafter the replay, recorded as\n%+v", workers, i, got.probes[i], want.probes[i])
			}
		}
		for i := range want.transfers {
			if !reflect.DeepEqual(got.transfers[i], want.transfers[i]) {
				t.Fatalf("workers=%d: transfer %d reads\n%+v (flip %+v)\nafter the replay, recorded as\n%+v (flip %+v)",
					workers, i, got.transfers[i], got.transfers[i].Bitflip, want.transfers[i], want.transfers[i].Bitflip)
			}
		}
	}
}

// TestWarmDecoderAllocatesPerStringNotPerRecord: a warm decoder, decoding
// into a block it has filled before, allocates for the block's new dictionary
// strings, its AS arena and what the inflater's Huffman tables take — tens —
// and nothing per record: a block of twenty times the records costs about
// the same.
func TestWarmDecoderAllocatesPerStringNotPerRecord(t *testing.T) {
	allocs := func(blockBytes int) (records int, perBlock float64) {
		data := writeSynthFile(t, 6000, blockBytes)
		r, err := NewReader(bytes.NewReader(data), synthPop())
		if err != nil {
			t.Fatal(err)
		}
		f, err := r.NextFrame()
		if err != nil {
			t.Fatal(err)
		}
		dec := r.newDecoder()
		var b block
		decode := func() {
			dec.decode(f, &b)
			if b.tearErr != nil || b.decodeErr != nil || len(b.recs) != int(f.Count) {
				t.Fatalf("decoded %d of %d records: %v %v", len(b.recs), f.Count, b.tearErr, b.decodeErr)
			}
		}
		decode()
		return int(f.Count), testing.AllocsPerRun(20, decode)
	}
	fewRecords, few := allocs(2 << 10)
	manyRecords, many := allocs(64 << 10)
	if manyRecords < 20*fewRecords {
		t.Fatalf("blocks of %d and %d records: want twenty times apart", fewRecords, manyRecords)
	}
	// synthProbe draws on 16 strings and 28 target keys.
	if few > 80 || many > few+40 {
		t.Errorf("a warm decoder allocates %v times for a block of %d records and %v for one of %d: want tens, and no term in the record count",
			few, fewRecords, many, manyRecords)
	}
}

// setCount rewrites the record count in the frame header at start: the one
// header field outside the CRC.
func setCount(data []byte, start int, count uint32) []byte {
	out := append([]byte(nil), data...)
	binary.BigEndian.PutUint32(out[start+8:], count)
	return out
}

// TestFrameCountBitFlips: the record count sits outside the CRC, so a flipped
// bit in it reaches the decoder. It is an advisory field: whatever it says,
// the replay ends in a decode error (the count is enforced in both
// directions), delivers no record the payload does not hold, and sizes
// nothing by it — the top bit once asked the allocator for a terabyte.
func TestFrameCountBitFlips(t *testing.T) {
	const probes = 2000
	data := writeSynthFile(t, probes, 8<<10)
	starts, counts := walkFrames(t, data)
	if len(starts) < 5 {
		t.Fatalf("want a first, a middle and later frames; got %d", len(starts))
	}
	const allocBound = 16 << 20
	pop := synthPop()
	for _, frame := range []int{0, len(starts) / 2} {
		held := 0 // records in the file up to and including this frame
		for _, c := range counts[:frame+1] {
			held += int(c)
		}
		for bit := 0; bit < 32; bit++ {
			flipped := setCount(data, starts[frame], counts[frame]^(1<<bit))
			for _, workers := range []int{1, 4} {
				r, err := NewReader(bytes.NewReader(flipped), pop)
				if err != nil {
					t.Fatal(err)
				}
				h := &countingHandler{}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				got, _, err := r.ReplayWith(ReplayOptions{Workers: workers}, h)
				runtime.ReadMemStats(&after)
				if err == nil && !r.Torn() {
					t.Errorf("frame %d bit %d workers %d: a wrong count replayed clean", frame, bit, workers)
				}
				if got != h.probes || got > held || got < held-int(counts[frame]) {
					t.Errorf("frame %d bit %d workers %d: %d probes returned, %d delivered; the file holds %d up to the damaged frame",
						frame, bit, workers, got, h.probes, held)
				}
				if spent := after.TotalAlloc - before.TotalAlloc; spent > allocBound {
					t.Errorf("frame %d bit %d workers %d: the replay allocated %d bytes, want under %d", frame, bit, workers, spent, allocBound)
				}
			}
		}
	}
}

// zerosFrame is a well-formed frame, CRC and all, that inflates to n zeros.
func zerosFrame(t *testing.T, n int) []byte {
	t.Helper()
	var comp bytes.Buffer
	zw, err := flate.NewWriter(&comp, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(make([]byte, n))
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, frameHeaderLen, frameHeaderLen+comp.Len())
	binary.BigEndian.PutUint32(frame[0:], uint32(comp.Len()))
	binary.BigEndian.PutUint32(frame[4:], crc32.Checksum(comp.Bytes(), crc32.MakeTable(crc32.Castagnoli)))
	binary.BigEndian.PutUint32(frame[8:], 1)
	return append(frame, comp.Bytes()...)
}

// TestInflateBoundTruncatesReplay: a frame with a valid CRC whose few KB
// inflate past segment.MaxBlockBytes is a tear: the replay delivers the
// blocks before it, reports a torn tail, and returns no error.
func TestInflateBoundTruncatesReplay(t *testing.T) {
	data := writeSynthFile(t, 200, 1024)
	starts, counts := walkFrames(t, data)
	cut := len(starts) / 2
	sealed := 0
	for _, c := range counts[:cut] {
		sealed += int(c)
	}
	bomb := append(append([]byte(nil), data[:starts[cut]]...), zerosFrame(t, segment.MaxBlockBytes+1)...)
	bomb = append(bomb, data[starts[cut]:]...)
	for _, workers := range []int{1, 4} {
		r, err := NewReader(bytes.NewReader(bomb), synthPop())
		if err != nil {
			t.Fatal(err)
		}
		h := &countingHandler{}
		probes, _, err := r.ReplayWith(ReplayOptions{Workers: workers}, h)
		if err != nil || !r.Torn() || !strings.Contains(r.TornReason().Error(), "inflates past") {
			t.Fatalf("workers=%d: err %v, torn %v (%v); want a clean truncation at the oversize frame", workers, err, r.Torn(), r.TornReason())
		}
		if probes != sealed || h.probes != sealed {
			t.Errorf("workers=%d: %d probes returned, %d delivered, want the %d before the oversize frame", workers, probes, h.probes, sealed)
		}
	}
}

// failingPart is a handler whose checkpoint seal fails.
type failingPart struct{ countingHandler }

var errSealFailed = errors.New("seal failed")

func (*failingPart) CheckpointSeal() ([]byte, error)  { return nil, errSealFailed }
func (*failingPart) RestoreCheckpoint(b []byte) error { return nil }

// TestReplayJoinsItsWorkers: whichever way a parallel replay ends early — a
// torn block, a decode error, a checkpoint that fails on the draining
// goroutine — the scanner and every worker have exited by the time ReplayWith
// returns: none is left decoding a block, and none is waiting for a job the
// drain will never hand back. (A hang here is the test timing out.)
func TestReplayJoinsItsWorkers(t *testing.T) {
	data := writeMixedFile(t, 3000, 1024)
	starts, counts := walkFrames(t, data)
	if len(starts) < 60 {
		t.Fatalf("want the early return to leave dozens of frames unread; got %d blocks", len(starts))
	}
	torn := append([]byte(nil), data...)
	torn[starts[3]+frameHeaderLen+2] ^= 0x10

	for _, tc := range []struct {
		name    string
		data    []byte
		opts    ReplayOptions
		handler measure.Handler
		check   func(r *Reader, err error) bool
	}{
		{"torn block", torn, ReplayOptions{Workers: 4}, &countingHandler{},
			func(r *Reader, err error) bool { return err == nil && r.Torn() }},
		{"decode error", setCount(data, starts[3], counts[3]-1), ReplayOptions{Workers: 4}, &countingHandler{},
			func(r *Reader, err error) bool { return err != nil && strings.Contains(err.Error(), "more records") }},
		{"checkpoint error", data, ReplayOptions{Workers: 4, CheckpointEvery: 2, CheckpointPath: filepath.Join(t.TempDir(), "c.ckpt")}, &failingPart{},
			func(r *Reader, err error) bool { return errors.Is(err, errSealFailed) }},
	} {
		r, err := NewReader(bytes.NewReader(tc.data), synthPop())
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = r.ReplayWith(tc.opts, tc.handler)
		if !tc.check(r, err) {
			t.Errorf("%s: err %v, torn %v", tc.name, err, r.Torn())
		}
		// A worker that has called wg.Done may still be on its way out, so
		// what counts as left behind is a pool goroutine that is decoding or
		// parked on a channel.
		stacks := make([]byte, 1<<20)
		stacks = stacks[:runtime.Stack(stacks, true)]
		for _, g := range strings.Split(string(stacks), "\n\n") {
			header, _, _ := strings.Cut(g, "\n")
			parked := strings.Contains(header, "[chan ") || strings.Contains(header, "[select")
			if strings.Contains(g, "dataset.(*blockDecoder).decode(") ||
				(parked && strings.Contains(g, "dataset.(*replayState).runParallel")) {
				t.Errorf("%s: left behind after ReplayWith returned:\n%s", tc.name, g)
			}
		}
	}
}

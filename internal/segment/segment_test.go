package segment

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const (
	testMagic   = "RGTS"
	testVersion = 3
	headerLen   = len(testMagic) + 1
)

// writeRecord appends one record: a varint, an interned string that repeats
// across records (so the dictionary matters), and a length-prefixed blob.
func writeRecord(w *Writer, i int) {
	w.Uvarint(uint64(i))
	w.Intern(fmt.Sprintf("site-%d", i%3))
	blob := bytes.Repeat([]byte{byte(i)}, 5+i%7)
	w.Uvarint(uint64(len(blob)))
	w.Raw(blob)
	w.EndRecord()
}

// readRecord is writeRecord's inverse, checking the content on the way.
func readRecord(rr *RecordReader, i int) error {
	v, err := rr.Uvarint()
	if err != nil || v != uint64(i) {
		return fmt.Errorf("record %d: index %d, err %v", i, v, err)
	}
	s, err := rr.Str()
	if err != nil || s != fmt.Sprintf("site-%d", i%3) {
		return fmt.Errorf("record %d: string %q, err %v", i, s, err)
	}
	blob, err := rr.Bytes()
	if err != nil || !bytes.Equal(blob, bytes.Repeat([]byte{byte(i)}, 5+i%7)) {
		return fmt.Errorf("record %d: blob %x, err %v", i, blob, err)
	}
	return nil
}

// buildStream writes blocks*perBlock records, sealing every perBlock, and
// returns the stream with the end offset of every block (ends[0] is the
// header's end).
func buildStream(t testing.TB, blocks, perBlock int) (stream []byte, ends []int) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	ends = append(ends, buf.Len())
	for b := 0; b < blocks; b++ {
		for i := 0; i < perBlock; i++ {
			writeRecord(w, b*perBlock+i)
		}
		if err := w.Seal(); err != nil {
			t.Fatal(err)
		}
		if int64(buf.Len()) != w.SealedBytes() {
			t.Fatalf("SealedBytes = %d, output holds %d", w.SealedBytes(), buf.Len())
		}
		ends = append(ends, buf.Len())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), ends
}

// readAll scans, verifies and decodes every block the reader will deliver,
// returning how many whole blocks and records came out.
func readAll(stream []byte, perBlock int) (blocks, records int, r *Reader, err error) {
	r, err = NewReader(bytes.NewReader(stream), testMagic, testVersion)
	if err != nil {
		return 0, 0, nil, err
	}
	for {
		f, err := r.NextFrame()
		if errors.Is(err, io.EOF) {
			return blocks, records, r, nil
		}
		if err != nil {
			return blocks, records, r, err
		}
		payload, err := Decompress(f)
		if err != nil {
			r.Tear(err)
			return blocks, records, r, nil
		}
		if f.Count != uint32(perBlock) {
			return blocks, records, r, fmt.Errorf("block %d declares %d records, want %d", blocks, f.Count, perBlock)
		}
		rr := NewRecordReader(payload)
		for rr.Len() > 0 {
			if err := readRecord(rr, records); err != nil {
				return blocks, records, r, err
			}
			records++
		}
		blocks++
	}
}

func TestRoundTripAndHeaderChecks(t *testing.T) {
	stream, _ := buildStream(t, 4, 10)
	blocks, records, r, err := readAll(stream, 10)
	if err != nil || blocks != 4 || records != 40 || r.Torn() {
		t.Fatalf("clean stream: %d blocks, %d records, torn=%v, err=%v", blocks, records, r.Torn(), err)
	}
	if _, err := NewReader(bytes.NewReader(stream), "XXXX", testVersion); !errors.Is(err, ErrBadMagic) {
		t.Errorf("wrong magic: err = %v", err)
	}
	if _, err := NewReader(bytes.NewReader(stream), testMagic, testVersion+1); err == nil {
		t.Error("wrong version accepted")
	}
	if _, err := NewReader(bytes.NewReader(stream[:2]), testMagic, testVersion); !errors.Is(err, ErrBadMagic) {
		t.Errorf("short header: err = %v", err)
	}
}

// TestTornTailAtEveryOffset cuts the stream at every byte offset: the reader
// must deliver exactly the blocks that are wholly present, never error, and
// report a torn tail unless the cut falls on a block boundary.
func TestTornTailAtEveryOffset(t *testing.T) {
	const perBlock = 6
	stream, ends := buildStream(t, 4, perBlock)
	for cut := headerLen; cut <= len(stream); cut++ {
		whole, boundary := 0, false
		for i, end := range ends {
			if end <= cut {
				whole = i
			}
			if end == cut {
				boundary = true
			}
		}
		blocks, records, r, err := readAll(stream[:cut], perBlock)
		if err != nil {
			t.Fatalf("cut %d: torn tail surfaced as an error: %v", cut, err)
		}
		if blocks != whole || records != whole*perBlock {
			t.Fatalf("cut %d: delivered %d blocks / %d records, want %d / %d", cut, blocks, records, whole, whole*perBlock)
		}
		if r.Torn() == boundary {
			t.Fatalf("cut %d: torn = %v at boundary = %v (%v)", cut, r.Torn(), boundary, r.TornReason())
		}
	}
}

// TestSingleBitFlips flips every bit of the second block's frame header and a
// spread of its payload bits. Whatever the flip hits, no block may come out
// both undetected and different: the blocks delivered are a prefix of the
// original ones, and the damaged block is not among them — except that a
// flip in the record count, which the CRC does not cover, passes the
// container and is left to the owner's count check (readAll's, here).
func TestSingleBitFlips(t *testing.T) {
	const perBlock = 8
	stream, ends := buildStream(t, 3, perBlock)
	start, end := ends[1], ends[2]
	bits := make([]int, 0, FrameHeaderLen*8+64)
	for b := 0; b < FrameHeaderLen*8; b++ {
		bits = append(bits, start*8+b)
	}
	for b := (start + FrameHeaderLen) * 8; b < end*8; b += (end - start) / 8 {
		bits = append(bits, b)
	}
	for _, bit := range bits {
		flipped := append([]byte(nil), stream...)
		flipped[bit/8] ^= 1 << (bit % 8)
		field := "payload"
		switch off := bit/8 - start; {
		case off < 4:
			field = "length"
		case off < 8:
			field = "crc"
		case off < FrameHeaderLen:
			field = "count"
		}
		blocks, _, r, err := readAll(flipped, perBlock)
		if field == "count" {
			if err == nil || !strings.Contains(err.Error(), "declares") {
				t.Errorf("bit %d (count): err = %v, want the owner's count check to fire", bit, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("bit %d (%s): corruption surfaced as an error, not a tear: %v", bit, field, err)
			continue
		}
		if blocks != 1 || !r.Torn() {
			t.Errorf("bit %d (%s): delivered %d blocks, torn = %v; want the stream cut after block 1", bit, field, blocks, r.Torn())
		}
	}
}

// TestOversizeLength: a frame header announcing more than MaxCompressedBlock
// (or nothing at all) is a tear, decided before any allocation.
func TestOversizeLength(t *testing.T) {
	stream, ends := buildStream(t, 2, 4)
	for _, n := range []uint32{0, MaxCompressedBlock + 1, 1<<32 - 1} {
		bad := append([]byte(nil), stream[:ends[1]]...)
		var hdr [FrameHeaderLen]byte
		binary.BigEndian.PutUint32(hdr[0:], n)
		bad = append(bad, hdr[:]...)
		bad = append(bad, stream[ends[1]:]...)
		blocks, _, r, err := readAll(bad, 4)
		if err != nil || blocks != 1 || !r.Torn() || !strings.Contains(r.TornReason().Error(), "implausible") {
			t.Errorf("length %d: %d blocks, torn = %v (%v), err = %v", n, blocks, r.Torn(), r.TornReason(), err)
		}
	}
}

// TestRewindContinuesByteIdentically: a writer reopened over an interrupted
// file — holding a block sealed after the checkpoint and a torn frame — and
// rewound to the checkpointed offset finishes a file byte-identical to an
// uninterrupted one.
func TestRewindContinuesByteIdentically(t *testing.T) {
	const perBlock = 5
	ref, ends := buildStream(t, 4, perBlock)

	path := filepath.Join(t.TempDir(), "interrupted.seg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f, testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*perBlock; i++ {
		writeRecord(w, i)
		if (i+1)%perBlock == 0 {
			if err := w.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkpointed := w.SealedBytes()
	if checkpointed != int64(ends[2]) {
		t.Fatalf("sealed offset %d, reference block boundary %d", checkpointed, ends[2])
	}
	// Past the checkpoint: one more sealed block, a half-written record, a
	// torn frame, and the process dies without Close.
	for i := 2 * perBlock; i < 3*perBlock; i++ {
		writeRecord(w, i)
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	w.Uvarint(99)
	f.Write([]byte("torn frame"))
	f.Close()

	f, err = os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err = NewWriter(f, testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Rewind(checkpointed); err != nil {
		t.Fatal(err)
	}
	for i := 2 * perBlock; i < 4*perBlock; i++ {
		writeRecord(w, i)
		if (i+1)%perBlock == 0 {
			if err := w.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatalf("rewound file differs from the uninterrupted one: %d vs %d bytes", len(got), len(ref))
	}

	// What Rewind refuses: an offset inside the header, an offset the file
	// never reached (the sidecar belongs to another file), and an output
	// that cannot be truncated.
	if err := w.Rewind(int64(headerLen) - 1); err == nil {
		t.Error("rewind into the header accepted")
	}
	if err := w.Rewind(int64(len(ref)) + 1); err == nil {
		t.Error("rewind past the end of the file accepted")
	}
	var buf bytes.Buffer
	bw, err := NewWriter(&buf, testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Rewind(int64(headerLen)); err == nil {
		t.Error("rewind of a non-truncatable output accepted")
	}
}

// TestCrashHookTearsFrame: a crash injected mid-write leaves half a frame on
// the output, parks the error, and keeps the sealed offset at the previous
// block — which is where a reader stops.
func TestCrashHookTearsFrame(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	sealedFrames := 0
	w.OnSeal = func(int) { sealedFrames++ }
	for i := 0; i < 4; i++ {
		writeRecord(w, i)
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	good := w.SealedBytes()
	crash := errors.New("killed")
	w.CrashHook = func() error { return crash }
	for i := 4; i < 8; i++ {
		writeRecord(w, i)
	}
	if err := w.Seal(); !errors.Is(err, crash) {
		t.Fatalf("Seal = %v, want the injected crash", err)
	}
	if w.SealedBytes() != good || int64(buf.Len()) <= good || sealedFrames != 1 {
		t.Fatalf("after the crash: sealed %d (want %d), output %d bytes, %d frames observed", w.SealedBytes(), good, buf.Len(), sealedFrames)
	}
	if err := w.Close(); !errors.Is(err, crash) {
		t.Errorf("Close after the crash = %v, want the parked error", err)
	}
	blocks, records, r, err := readAll(buf.Bytes(), 4)
	if err != nil || blocks != 1 || records != 4 || !r.Torn() {
		t.Errorf("reading the torn output: %d blocks, %d records, torn = %v, err = %v", blocks, records, r.Torn(), err)
	}
}

// TestSealReusesItsCompressor: Seal keeps one compressor, one frame buffer
// and one dictionary map from block to block, and what they held must not
// leak into the next frame. Every block a long-lived writer seals — the
// second and third in a row, the one after a Rewind, the one after a seal
// torn by CrashHook — is byte-identical to that block from a writer that has
// sealed nothing before; and a warm writer seals without allocating, however
// large the block and whether or not a cycle hands one off on the way.
func TestSealReusesItsCompressor(t *testing.T) {
	const perBlock = 300
	block := func(w *Writer, b int) {
		for i := b * perBlock; i < (b+1)*perBlock; i++ {
			writeRecord(w, i)
		}
	}
	// fresh is block b as the first and only frame of a new writer.
	fresh := func(b int) []byte {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, testMagic, testVersion)
		if err != nil {
			t.Fatal(err)
		}
		block(w, b)
		if err := w.Seal(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()[headerLen:]
	}

	path := filepath.Join(t.TempDir(), "reused.seg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := NewWriter(f, testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	// sealAndCompare seals block b and compares the frame just appended.
	sealAndCompare := func(what string, b int) {
		t.Helper()
		from := w.SealedBytes()
		block(w, b)
		if err := w.Seal(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := file[from:], fresh(b); !bytes.Equal(got, want) {
			t.Errorf("%s: block %d is %d bytes from the reused writer, %d from a fresh one, or differs in content", what, b, len(got), len(want))
		}
	}
	sealAndCompare("first block", 0)
	afterFirst := w.SealedBytes()
	sealAndCompare("second block", 1)
	sealAndCompare("third block", 2)

	if err := w.Rewind(afterFirst); err != nil {
		t.Fatal(err)
	}
	sealAndCompare("block after a Rewind", 3)

	crash := errors.New("killed")
	w.CrashHook = func() error { return crash }
	block(w, 4)
	if err := w.Seal(); !errors.Is(err, crash) {
		t.Fatalf("Seal = %v, want the injected crash", err)
	}
	w.CrashHook = nil
	if err := w.Rewind(w.SealedBytes()); err != nil {
		t.Fatal(err)
	}
	sealAndCompare("block after a torn seal", 5)

	blob := bytes.Repeat([]byte("payload "), 16)
	for _, records := range []int{64, 4096} {
		d, err := NewWriter(io.Discard, testMagic, testVersion)
		if err != nil {
			t.Fatal(err)
		}
		cycle := func() {
			for i := 0; i < records; i++ {
				d.Uvarint(uint64(i))
				d.Intern("site")
				d.Raw(blob)
				d.EndRecord()
			}
			if err := d.Seal(); err != nil {
				t.Fatal(err)
			}
		}
		frames := 0
		d.OnSeal = func(int) { frames++ }
		cycle() // the first seal builds the compressor and sizes the buffers
		if want := 1 + records/4096; frames != want {
			t.Fatalf("%d records sealed %d frames, want %d: the long cycle is there to cross a hand-off", records, frames, want)
		}
		if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
			t.Errorf("a warm writer sealing %d records: %v allocs per block, want 0", records, allocs)
		}
	}
}

// FuzzScanFrame feeds arbitrary bytes behind a valid header to the frame
// scanner, the verifier and the record reader: nothing may panic, a scanned
// frame must be exactly as long as its header says and within the size
// bound, and a stream that scans clean must account for every byte.
func FuzzScanFrame(f *testing.F) {
	stream, ends := buildStream(f, 3, 4)
	f.Add(stream[headerLen:])
	f.Add(stream[headerLen : ends[2]-3])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		in := append(append([]byte(testMagic), testVersion), body...)
		r, err := NewReader(bytes.NewReader(in), testMagic, testVersion)
		if err != nil {
			t.Fatal(err)
		}
		consumed := 0
		for {
			fr, err := r.ScanFrame()
			if err != nil {
				if errors.Is(err, io.EOF) && consumed != len(body) {
					t.Fatalf("clean end after %d of %d bytes", consumed, len(body))
				}
				return
			}
			n := binary.BigEndian.Uint32(fr.Hdr[0:])
			if n == 0 || n > MaxCompressedBlock || int(n) != len(fr.Comp) {
				t.Fatalf("frame of %d payload bytes under a header announcing %d", len(fr.Comp), n)
			}
			if fr.Count != binary.BigEndian.Uint32(fr.Hdr[8:]) {
				t.Fatalf("frame count %d disagrees with its header", fr.Count)
			}
			consumed += FrameHeaderLen + len(fr.Comp)
			payload, err := Decompress(fr)
			if err != nil {
				continue
			}
			rr := NewRecordReader(payload)
			for rr.Len() > 0 {
				if _, err := rr.Uvarint(); err != nil {
					break
				}
				if _, err := rr.Str(); err != nil {
					break
				}
				if _, err := rr.Bytes(); err != nil {
					break
				}
			}
		}
	})
}

// frames scans every frame of a stream.
func frames(t testing.TB, stream []byte) []Frame {
	t.Helper()
	r, err := NewReader(bytes.NewReader(stream), testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	var out []Frame
	for {
		f, err := r.NextFrame()
		if errors.Is(err, io.EOF) {
			if r.Torn() {
				t.Fatalf("stream reads as torn: %v", r.TornReason())
			}
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
}

// TestInflaterReusesItsBuffer: one Inflater over a run of blocks returns what
// the one-shot Decompress returns, in a buffer it owns (valid until the next
// call, the same one on every call once it has grown to the blocks' size),
// and checks the CRC before it inflates anything.
func TestInflaterReusesItsBuffer(t *testing.T) {
	stream, _ := buildStream(t, 6, 40)
	fs := frames(t, stream)
	var in Inflater
	var last []byte
	for round := 0; round < 2; round++ {
		for i, f := range fs {
			want, err := Decompress(f)
			if err != nil {
				t.Fatal(err)
			}
			got, err := in.Decompress(f)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("block %d: inflater gave %d bytes (err %v), Decompress %d", i, len(got), err, len(want))
			}
			if round > 0 && &got[0] != &last[0] {
				t.Errorf("block %d, second time round: inflated into a new buffer", i)
			}
			last = got
		}
	}

	held, err := in.Decompress(fs[0])
	if err != nil {
		t.Fatal(err)
	}
	keep := append([]byte(nil), held...)
	bad := fs[1]
	bad.Comp = append([]byte(nil), bad.Comp...)
	bad.Comp[len(bad.Comp)/2] ^= 1
	if _, err := in.Decompress(bad); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("flipped payload bit: err = %v, want the CRC check", err)
	}
	if !bytes.Equal(held, keep) {
		t.Error("a frame refused by its CRC overwrote the previous payload: it was inflated before it was checked")
	}
}

// zerosFrame is a well-formed frame (its CRC holds) that inflates to n zeros.
func zerosFrame(t testing.TB, n int) Frame {
	t.Helper()
	var comp bytes.Buffer
	zw, err := flate.NewWriter(&comp, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(make([]byte, n)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	f := Frame{Comp: comp.Bytes(), Count: 1}
	binary.BigEndian.PutUint32(f.Hdr[0:], uint32(len(f.Comp)))
	binary.BigEndian.PutUint32(f.Hdr[4:], crc32.Checksum(f.Comp, crcTable))
	binary.BigEndian.PutUint32(f.Hdr[8:], f.Count)
	return f
}

// TestInflateBound: a frame may inflate to MaxBlockBytes and no further. A few
// KB that deflate a run of zeros just past it are refused as a tear-class
// error, having cost a small multiple of the bound, and the Inflater keeps
// nothing of that size; it goes on to inflate the next frame.
func TestInflateBound(t *testing.T) {
	atBound, past := zerosFrame(t, MaxBlockBytes), zerosFrame(t, MaxBlockBytes+1)
	if len(past.Comp) > 64<<10 {
		t.Fatalf("the bomb takes %d compressed bytes", len(past.Comp))
	}
	if p, err := Decompress(atBound); err != nil || len(p) != MaxBlockBytes {
		t.Fatalf("a frame of exactly MaxBlockBytes: %d bytes, err %v", len(p), err)
	}
	var in Inflater
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := in.Decompress(past)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "inflates past") {
		t.Fatalf("a frame one byte past MaxBlockBytes: err = %v", err)
	}
	// The output buffer doubles on its way to the bound: a few times the
	// bound in all, not the gigabytes a frame of MaxCompressedBlock could hold.
	if got := after.TotalAlloc - before.TotalAlloc; got > 8*MaxBlockBytes {
		t.Errorf("refusing it allocated %d bytes, want under %d", got, 8*MaxBlockBytes)
	}
	if in.out.Cap() != 0 {
		t.Errorf("the Inflater kept a buffer of %d bytes after the refusal", in.out.Cap())
	}
	stream, _ := buildStream(t, 1, 4)
	if _, err := in.Decompress(frames(t, stream)[0]); err != nil {
		t.Errorf("the frame after the refusal: %v", err)
	}
}

// TestRecordReaderRefusals: every malformed-record case the reader refuses —
// payload ending inside a varint, a varint that overflows 64 bits, a
// dictionary reference past the dictionary, a string or blob length past the
// end of the block — and Reset: the dictionary is per block, and a string
// handed out owns its bytes.
func TestRecordReaderRefusals(t *testing.T) {
	overflow := bytes.Repeat([]byte{0xff}, 11)
	for _, tc := range []struct {
		name    string
		payload []byte
		read    func(*RecordReader) error
		want    string
	}{
		{"empty", nil, func(r *RecordReader) error { _, err := r.Uvarint(); return err }, "unexpected EOF"},
		{"short varint", []byte{0x80, 0x80}, func(r *RecordReader) error { _, err := r.Uvarint(); return err }, "unexpected EOF"},
		{"varint overflow", overflow, func(r *RecordReader) error { _, err := r.Uvarint(); return err }, "overflows"},
		{"string ref overflow", overflow, func(r *RecordReader) error { _, err := r.Str(); return err }, "overflows"},
		{"dictionary ref out of range", []byte{2 << 1}, func(r *RecordReader) error { _, err := r.Str(); return err }, "bad dictionary reference"},
		{"string past the end", []byte{5<<1 | 1, 'a', 'b'}, func(r *RecordReader) error { _, err := r.Str(); return err }, "unexpected EOF"},
		{"string length 2^63", append(binary.AppendUvarint(nil, 1<<63|1), 'a'), func(r *RecordReader) error { _, err := r.Str(); return err }, "unexpected EOF"},
		{"blob past the end", []byte{9, 1, 2, 3}, func(r *RecordReader) error { _, err := r.Bytes(); return err }, "unexpected EOF"},
		{"blob length 2^64-1", append(binary.AppendUvarint(nil, 1<<64-1), 1), func(r *RecordReader) error { _, err := r.Bytes(); return err }, "unexpected EOF"},
	} {
		if err := tc.read(NewRecordReader(tc.payload)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}

	first := []byte{2<<1 | 1, 'h', 'i', 1 << 1, 3, 7, 8, 9}
	rr := NewRecordReader(first)
	s1, err1 := rr.Str()
	s2, err2 := rr.Str()
	blob, err3 := rr.Bytes()
	if err1 != nil || err2 != nil || err3 != nil || s1 != "hi" || s2 != "hi" || !bytes.Equal(blob, []byte{7, 8, 9}) || rr.Len() != 0 {
		t.Fatalf("block one: %q %q %v, errs %v %v %v, %d bytes left", s1, s2, blob, err1, err2, err3, rr.Len())
	}
	for i := range first {
		first[i] = 'x' // the inflate buffer is reused under the next block
	}
	if s1 != "hi" || !bytes.Equal(blob, []byte{7, 8, 9}) {
		t.Errorf("after the payload was overwritten the string reads %q and the blob %v", s1, blob)
	}
	rr.Reset([]byte{1 << 1})
	if _, err := rr.Str(); err == nil || !strings.Contains(err.Error(), "bad dictionary reference") {
		t.Errorf("reference 1 in a block that defined no string: err = %v; the dictionary outlived its block", err)
	}
	rr.Reset([]byte{0, 3<<1 | 1, 'a', 'b', 'c', 1 << 1})
	if s, err := rr.Str(); err != nil || s != "" {
		t.Errorf("reference 0: %q, %v, want the empty string", s, err)
	}
	rr.Str()
	if s, err := rr.Str(); err != nil || s != "abc" {
		t.Errorf("reference 1 after Reset: %q, %v", s, err)
	}
}

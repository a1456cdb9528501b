// Package segment is the repo's sealed-block container format, factored out
// of the dataset recorder so other record streams (the qlog flight recorder)
// can share its durability story. A segment file opens with a caller-chosen
// magic and a varint version, followed by framed blocks:
//
//	[u32be compressed length][u32be CRC-32C of payload][u32be record count]
//
// each holding a DEFLATE-compressed run of records. Repeated strings intern
// into a per-block dictionary that resets at every seal, so blocks are
// independently decodable; a crash can at worst tear the trailing block,
// which the Reader detects (short frame, CRC mismatch, bad DEFLATE) and
// cleanly truncates instead of erroring mid-stream. A Writer reopened over an
// interrupted recording rewinds to its last checkpointed block (Rewind) and
// appends from there byte-identically.
//
// Because a block stands alone, a Writer seals one block behind its encoder:
// the block EndRecord finds full is compressed, checksummed and written by a
// goroutine of its own while the caller fills the next (see EndRecord), in
// block order and with the same bytes as a Seal at that record. Everything a
// caller can observe is a fence that first joins that block (Wait): Seal,
// Close, Sync, SealedBytes, Rewind. Nothing turns this on or off.
//
// The package is deliberately policy-free: record encodings, failpoint
// sites, and metrics belong to the owning layer (dataset, qlog), which hook
// in via CrashHook and OnSeal.
package segment

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// DefaultBlockBytes is the uncompressed block size at which a Writer seals
// automatically. Checkpoint boundaries also seal, so the value only bounds
// memory (and crash loss) between checkpoints.
const DefaultBlockBytes = 512 * 1024

// FrameHeaderLen is the fixed per-block frame: length, CRC, record count.
const FrameHeaderLen = 12

// MaxCompressedBlock bounds a frame length a Reader will believe; anything
// larger is treated as a torn/corrupt tail rather than allocated.
const MaxCompressedBlock = 64 << 20

// MaxBlockBytes bounds what a frame may inflate to: 32 default blocks, and a
// Writer refuses to frame a block past it (ErrBlockTooLarge). DEFLATE expands
// a thousandfold, so without it a crafted frame is an allocation of
// gigabytes. Inflating past it is tear-class, like a bad CRC.
const MaxBlockBytes = 16 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Writer records framed blocks of records. Record bytes accumulate in an
// in-memory block via Uvarint/Intern/Raw; EndRecord marks a record boundary
// and past BlockBytes hands the block off to be sealed, so seal points are a
// pure function of the record stream and interrupted runs frame their blocks
// identically. A Writer belongs to one goroutine; CrashHook, OnSeal and the
// output are also called from the goroutine sealing a handed-off block, so
// they are set before the first record or right after a fence.
type Writer struct {
	out   io.Writer
	magic string
	buf   []byte // current (unsealed) block's records
	dict  map[string]uint64
	next  uint64
	err   error

	// BlockBytes is the auto-seal threshold (uncompressed); 0 means
	// DefaultBlockBytes. It must match between runs for byte-identical
	// kill/resume recordings.
	BlockBytes int

	// CrashHook, when set, runs after a frame is assembled and before it is
	// written. A non-nil return simulates a crash mid-write: half the frame
	// lands on the output (a torn tail), the error parks in the writer, and
	// the sealed offset still ends at the previous block. The owning layer
	// points this at its failpoint site.
	CrashHook func() error

	// OnSeal, when set, observes each durably written frame's size — the
	// owning layer's metrics hook.
	OnSeal func(frameBytes int)

	blockRecords uint32
	sealed       int64 // bytes durably framed, header included

	// The block in flight: EndRecord swaps a full block into flying and starts
	// sealFlying on it. Until Wait has received from done, that goroutine owns
	// flying, flyingRecords, sealed, comp, frame and the output, and the
	// caller encodes the next block into the other buffer. Idle, flying is
	// the spare buffer.
	flying        []byte
	flyingRecords uint32
	inFlight      bool
	done          chan error // one slot: the goroutine never waits to be joined
	sealFlying    func()     // built once: a go statement on it allocates nothing

	// comp and frame are writeFrame's compressor (hundreds of KB; Reset is
	// documented to leave it as NewWriter would) and frame buffer, kept across
	// blocks.
	comp  *flate.Writer
	frame bytes.Buffer
}

// ErrBlockTooLarge is what a Writer parks when its pending block has outgrown
// MaxBlockBytes: a Reader would take the frame for a torn tail and truncate
// the stream there, so it is not written.
var ErrBlockTooLarge = errors.New("segment: pending block exceeds MaxBlockBytes")

// NewWriter starts a segment stream on out, writing the magic + version
// header immediately.
func NewWriter(out io.Writer, magic string, version uint64) (*Writer, error) {
	w := &Writer{out: out, magic: magic, dict: make(map[string]uint64), next: 1, done: make(chan error, 1)}
	w.sealFlying = func() { w.done <- w.writeFrame(w.flying, w.flyingRecords) }
	hdr := make([]byte, 0, len(magic)+binary.MaxVarintLen64)
	hdr = append(hdr, magic...)
	hdr = binary.AppendUvarint(hdr, version)
	if _, err := out.Write(hdr); err != nil {
		return nil, err
	}
	w.sealed = int64(len(hdr))
	return w, nil
}

// truncater is what Rewind needs from the output to discard a torn tail;
// *os.File satisfies it.
type truncater interface {
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
}

// Rewind continues an interrupted stream on a writer freshly opened over
// the interrupted file: it truncates the output to the sealed offset
// (discarding any torn tail and any block sealed after the checkpoint that
// recorded the offset), positions writes at the new end, and starts the next
// block with a fresh dictionary — exactly the state an uninterrupted run
// had at that boundary, so the resumed file is byte-identical.
func (w *Writer) Rewind(offset int64) error {
	w.Wait() // what it wrote or parked is about to be cut off
	if offset < int64(len(w.magic))+1 {
		return fmt.Errorf("segment: resume offset %d precedes header", offset)
	}
	tr, ok := w.out.(truncater)
	if !ok {
		return errors.New("segment: resume target does not support truncation")
	}
	end, err := tr.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	if end < offset {
		return fmt.Errorf("segment: resume offset %d is past the end of the output (%d bytes)", offset, end)
	}
	if err := tr.Truncate(offset); err != nil {
		return fmt.Errorf("segment: truncating torn tail: %w", err)
	}
	if _, err := tr.Seek(offset, io.SeekStart); err != nil {
		return err
	}
	w.err = nil
	w.sealed = offset
	w.startBlock()
	return nil
}

// startBlock empties the pending block and its dictionary: blocks stand alone.
func (w *Writer) startBlock() {
	w.buf, w.blockRecords = w.buf[:0], 0
	clear(w.dict)
	w.next = 1
}

// Fresh reports whether the pending block holds no record yet: the next
// record opens a block, after a hand-off, a Seal or a Rewind alike. An owning
// layer whose encoding refers back to earlier records of the block starts
// that state over here, as the dictionary does, so blocks stay independent.
func (w *Writer) Fresh() bool { return w.blockRecords == 0 }

// Uvarint appends a varint to the current record.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Intern appends a string reference: known strings cost one varint; new ones
// are written once with their bytes. Scope is the current block.
func (w *Writer) Intern(s string) {
	if id, ok := w.dict[s]; ok {
		w.Uvarint(id << 1)
		return
	}
	w.dict[s] = w.next
	w.next++
	w.Uvarint(uint64(len(s))<<1 | 1)
	w.buf = append(w.buf, s...)
}

// Raw appends pre-encoded record bytes verbatim. Callers that encode whole
// records into pooled buffers (qlog) land them here in one copy.
func (w *Writer) Raw(p []byte) {
	w.buf = append(w.buf, p...)
}

// EndRecord marks the end of one record. Once the pending block exceeds the
// size threshold it is handed off: a goroutine deflates, checksums and writes
// block k while the caller encodes block k+1 into the other buffer. At most
// one block is in flight — a second buys nothing once the slower side is
// always busy, and is one more to lose at a kill — and the goroutine lives
// for that block only, so an idle or abandoned Writer holds none. A failed
// or torn seal parks its error at the next hand-off or fence.
func (w *Writer) EndRecord() {
	w.blockRecords++
	limit := w.BlockBytes
	if limit <= 0 {
		limit = DefaultBlockBytes
	}
	if len(w.buf) < limit {
		if cap(w.buf) < limit {
			// A buffer's first record: size it once, for a block and the
			// record that crosses the threshold, instead of by doubling.
			w.buf = append(make([]byte, 0, limit+limit/8), w.buf...)
		}
		return
	}
	if w.ready() != nil {
		return
	}
	w.buf, w.flying, w.flyingRecords = w.flying, w.buf, w.blockRecords
	w.startBlock()
	w.inFlight = true
	go w.sealFlying()
}

// Wait joins the block in flight, if there is one, and returns the writer's
// parked error. It seals nothing: the pending block stays pending. Every
// fence — Seal, Close, Sync, SealedBytes, Rewind — starts here, and so does a
// caller that abandons a Writer un-closed and needs its output to stand still.
func (w *Writer) Wait() error {
	if w.inFlight {
		w.inFlight = false
		w.err = <-w.done // nil until now: nothing is handed off past an error
	}
	return w.err
}

// ready joins the block in flight and reports whether the pending block may
// be framed: no error parked, and no larger than a Reader accepts.
func (w *Writer) ready() error {
	if w.Wait() == nil && len(w.buf) > MaxBlockBytes {
		w.err = fmt.Errorf("%w: %d bytes", ErrBlockTooLarge, len(w.buf))
	}
	return w.err
}

// Seal compresses and frames the current block, making every record so far
// durable on the underlying writer. Sealing an empty block is a no-op.
// After a seal the dictionary resets, so blocks stand alone.
func (w *Writer) Seal() error {
	if err := w.ready(); err != nil || w.blockRecords == 0 {
		return err
	}
	if w.err = w.writeFrame(w.buf, w.blockRecords); w.err != nil {
		return w.err
	}
	w.startBlock()
	return nil
}

// writeFrame is the one seal path: it compresses block, frames it and writes
// it, on the calling goroutine for Seal and on its own for a hand-off.
func (w *Writer) writeFrame(block []byte, records uint32) error {
	// The header is reserved first and filled in once the payload's length
	// and checksum are known: the payload is written where it is sent from.
	var hdr [FrameHeaderLen]byte
	w.frame.Reset()
	w.frame.Write(hdr[:])
	if w.comp == nil {
		// Level 2: on the dataset's version-4 records level 5 saves a tenth
		// of the bytes for a third more time, and level 2 already weighs
		// 15–40 % less than version 3 did at 5 (dataset's
		// BenchmarkSealLevels).
		// NewWriter fails on an invalid level only, and this one is valid.
		w.comp, _ = flate.NewWriter(nil, 2)
	}
	w.comp.Reset(&w.frame)
	if _, err := w.comp.Write(block); err != nil {
		return err
	}
	if err := w.comp.Close(); err != nil {
		return err
	}
	frame := w.frame.Bytes()
	payload := frame[FrameHeaderLen:]
	binary.BigEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	binary.BigEndian.PutUint32(frame[8:], records)
	if w.CrashHook != nil {
		if ferr := w.CrashHook(); ferr != nil {
			w.out.Write(frame[:FrameHeaderLen+len(payload)/2])
			return ferr
		}
	}
	if _, err := w.out.Write(frame); err != nil {
		return err
	}
	w.sealed += int64(len(frame))
	if w.OnSeal != nil {
		w.OnSeal(len(frame))
	}
	return nil
}

// SealedBytes reports how many bytes of the output are covered by sealed
// blocks (the crash-recoverable prefix), the block in flight included.
func (w *Writer) SealedBytes() int64 {
	w.Wait()
	return w.sealed
}

// Err returns the writer's parked error, if any, as of the last join: cheap
// enough to ask before every record.
func (w *Writer) Err() error { return w.err }

// Sync joins the block in flight and flushes the underlying file when it
// supports it.
func (w *Writer) Sync() error {
	if err := w.Wait(); err != nil {
		return err
	}
	if s, ok := w.out.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}

// Close seals any pending block and flushes the stream.
func (w *Writer) Close() error {
	return w.Seal()
}

// Frame is one sealed block as scanned off the wire, CRC unverified: the
// CPU-bound work (checksum, DEFLATE, record decode) happens in Decompress so
// it can run on a worker.
type Frame struct {
	Hdr   [FrameHeaderLen]byte
	Comp  []byte
	Count uint32
}

// Reader scans framed blocks off a segment stream, tolerating a torn
// trailing block. Frame scanning is sequential; Decompress is a pure
// function of a Frame, so callers may fan decode out to workers (dataset's
// parallel replay does).
type Reader struct {
	raw *bufio.Reader

	// Tear state belongs to the goroutine that owns the Reader; callers
	// running parallel decode apply tears at the torn frame's delivery
	// position via Tear.
	//rootlint:shardconfined Reader.Tear,Reader.Torn,Reader.TornReason
	torn bool
	//rootlint:shardconfined Reader.Tear,Reader.Torn,Reader.TornReason
	tornErr error
}

// ErrBadMagic reports a stream that does not open with the expected magic.
var ErrBadMagic = errors.New("segment: bad magic")

// NewReader opens a segment stream, checking magic and version.
func NewReader(in io.Reader, magic string, version uint64) (*Reader, error) {
	raw := bufio.NewReader(in)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(raw, head); err != nil || string(head) != magic {
		return nil, ErrBadMagic
	}
	v, err := binary.ReadUvarint(raw)
	if err != nil || v != version {
		return nil, fmt.Errorf("segment: unsupported version %d", v)
	}
	return &Reader{raw: raw}, nil
}

// Torn reports whether the stream ended in a torn (incomplete or corrupt)
// trailing block, which scanning silently truncated at the last sealed
// boundary — the expected state after a crash mid-recording.
func (r *Reader) Torn() bool { return r.torn }

// TornReason describes the detected tail corruption, nil when !Torn().
func (r *Reader) TornReason() error { return r.tornErr }

// ScanFrame reads the next sealed block's frame without decompressing it
// and without mutating any Reader state beyond the stream position: io.EOF
// means a clean end at a block boundary; any other error is tear-class and
// the caller decides when to apply it. The frame's compressed payload is
// freshly allocated — frames may outlive the sequential scan.
func (r *Reader) ScanFrame() (Frame, error) {
	var f Frame
	if _, err := io.ReadFull(r.raw, f.Hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return f, io.EOF // clean end: file stops at a block boundary
		}
		return f, fmt.Errorf("segment: torn frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(f.Hdr[0:])
	f.Count = binary.BigEndian.Uint32(f.Hdr[8:])
	if n == 0 || n > MaxCompressedBlock {
		return f, fmt.Errorf("segment: implausible block length %d", n)
	}
	f.Comp = make([]byte, n)
	if _, err := io.ReadFull(r.raw, f.Comp); err != nil {
		if err == io.EOF {
			// Zero payload bytes after a complete header is a torn tail, not
			// a block boundary; don't let the bare io.EOF read as clean end.
			err = io.ErrUnexpectedEOF
		}
		return f, fmt.Errorf("segment: torn block payload: %w", err)
	}
	return f, nil
}

// NextFrame is ScanFrame for serial consumers: a tear-class scan error is
// applied to the Reader immediately and converted to a clean io.EOF.
func (r *Reader) NextFrame() (Frame, error) {
	f, err := r.ScanFrame()
	if err != nil && !errors.Is(err, io.EOF) {
		return f, r.Tear(err)
	}
	return f, err
}

// Tear records the torn tail and converts it into a clean end-of-stream.
func (r *Reader) Tear(reason error) error {
	r.torn = true
	r.tornErr = reason
	return io.EOF
}

// Inflater verifies and inflates frames one after another, keeping one DEFLATE
// reader and one output buffer between calls. The zero value is ready; an
// Inflater belongs to one goroutine.
type Inflater struct {
	src bytes.Reader
	fr  io.Reader // a flate reader, built on first use; also a flate.Resetter
	out bytes.Buffer
}

// Decompress verifies f's CRC, then inflates its payload. The returned slice
// is the Inflater's own buffer, valid until the next call. An error is
// tear-class (the block's bytes are corrupt, or inflate past MaxBlockBytes)
// and the caller should truncate there.
func (in *Inflater) Decompress(f Frame) ([]byte, error) {
	sum := binary.BigEndian.Uint32(f.Hdr[4:])
	if crc32.Checksum(f.Comp, crcTable) != sum {
		return nil, errors.New("segment: block CRC mismatch")
	}
	in.src.Reset(f.Comp)
	if in.fr == nil {
		in.fr = flate.NewReader(&in.src)
	} else if err := in.fr.(flate.Resetter).Reset(&in.src, nil); err != nil {
		return nil, fmt.Errorf("segment: corrupt block stream: %w", err)
	}
	in.out.Reset()
	in.out.Grow(min(4*len(f.Comp), MaxBlockBytes)) // these records deflate to a quarter or so
	n, err := in.out.ReadFrom(&io.LimitedReader{R: in.fr, N: MaxBlockBytes + 1})
	if err != nil {
		return nil, fmt.Errorf("segment: corrupt block stream: %w", err)
	}
	if n > MaxBlockBytes {
		in.out = bytes.Buffer{} // not a buffer to keep
		return nil, fmt.Errorf("segment: block inflates past %d bytes", MaxBlockBytes)
	}
	return in.out.Bytes(), nil
}

// Decompress is the one-shot form of Inflater.Decompress: a pure function of
// the frame whose result the caller owns.
func Decompress(f Frame) ([]byte, error) {
	return new(Inflater).Decompress(f)
}

// RecordReader decodes the records of one decompressed block at a time. The
// dictionary is block-scoped (reset at every seal), which is precisely what
// makes blocks independently decodable. Strings it returns own their bytes;
// nothing it hands out aliases the payload.
type RecordReader struct {
	buf  []byte
	off  int
	dict []string
}

// NewRecordReader wraps one block's decompressed payload.
func NewRecordReader(payload []byte) *RecordReader {
	return &RecordReader{buf: payload, dict: []string{""}}
}

// Reset points the reader at another block's payload and empties the
// dictionary, keeping its backing array.
func (r *RecordReader) Reset(payload []byte) {
	r.buf, r.off = payload, 0
	clear(r.dict) // do not pin the last block's strings
	r.dict = append(r.dict[:0], "")
}

// Len reports the unread payload bytes.
func (r *RecordReader) Len() int { return len(r.buf) - r.off }

// Uvarint reads one varint.
//
//rootlint:hotpath
func (r *RecordReader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n < 0 {
		return 0, errors.New("segment: varint overflows a 64-bit integer")
	}
	if n == 0 {
		return 0, io.ErrUnexpectedEOF // the payload ends inside the varint
	}
	r.off += n
	return v, nil
}

// Str reads one interned string reference.
//
//rootlint:hotpath
func (r *RecordReader) Str() (string, error) {
	id, err := r.Ref()
	if err != nil {
		return "", err
	}
	return r.dict[id], nil
}

// Ref reads one interned string reference like Str and returns where the
// string sits in Dict instead of the string.
//
//rootlint:hotpath
func (r *RecordReader) Ref() (uint32, error) {
	v, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if v&1 == 0 {
		id := v >> 1
		if id >= uint64(len(r.dict)) {
			return 0, errors.New("segment: bad dictionary reference")
		}
		return uint32(id), nil
	}
	raw, err := r.take(v >> 1)
	if err != nil {
		return 0, err
	}
	// Every new string costs at least its length varint, so a block's
	// dictionary never outgrows its payload, nor a uint32.
	r.dict = append(r.dict, string(raw))
	return uint32(len(r.dict) - 1), nil
}

// Dict is the block's dictionary as read so far, indexed by Ref; entry 0 is
// "". It is the reader's own, valid until the next Reset.
func (r *RecordReader) Dict() []string { return r.dict }

// take consumes the next n payload bytes, refusing a length past the end.
func (r *RecordReader) take(n uint64) ([]byte, error) {
	if n > uint64(r.Len()) {
		return nil, io.ErrUnexpectedEOF
	}
	raw := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return raw, nil
}

// Bytes reads one length-prefixed byte string (written as Uvarint(len) +
// Raw(bytes)) into a slice the caller owns.
func (r *RecordReader) Bytes() ([]byte, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	raw, err := r.take(n)
	if err != nil {
		return nil, err
	}
	return append(make([]byte, 0, len(raw)), raw...), nil
}

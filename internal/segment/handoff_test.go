package segment

// Tests for the seal hand-off: EndRecord gives a full block to a goroutine
// and goes on encoding. The oracle throughout is a writer that never hands
// off — its BlockBytes is out of reach — and is sealed by explicit fences at
// the record boundaries the auto-seal rule names.

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

// stream is one seeded record stream, so that two writers can be fed the same
// one: record i is a varint, one of a few interned strings and a blob of up
// to 300 bytes. Where it auto-seals is stated without a Writer: after the
// first record that brings the pending block to limit bytes or more.
type stream struct {
	vals  []uint64
	strs  []string
	blobs [][]byte
}

func newStream(seed int64, n int) stream {
	var s stream
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		s.vals = append(s.vals, rng.Uint64()>>uint(rng.Intn(64)))
		s.strs = append(s.strs, "site-"+strings.Repeat("x", rng.Intn(5)))
		blob := make([]byte, rng.Intn(300))
		for j := range blob {
			blob[j] = byte(rng.Intn(7)) // compressible, like real records
		}
		s.blobs = append(s.blobs, blob)
	}
	return s
}

func (s stream) write(w *Writer, i int) {
	w.Uvarint(s.vals[i])
	w.Intern(s.strs[i])
	w.Uvarint(uint64(len(s.blobs[i])))
	w.Raw(s.blobs[i])
	w.EndRecord()
}

// fenced writes the stream through a writer that never hands off, sealing
// explicitly wherever a writer with BlockBytes = limit would auto-seal. It
// returns the index of the record before each of those seals and the end
// offset of every frame, the one Close wrote included.
func (s stream) fenced(t testing.TB, w *Writer, limit int) (at []int, ends []int64) {
	t.Helper()
	w.BlockBytes = MaxBlockBytes
	w.OnSeal = func(int) { ends = append(ends, w.sealed) }
	for i := range s.vals {
		s.write(w, i)
		if len(w.buf) >= limit {
			if err := w.Seal(); err != nil {
				t.Fatal(err)
			}
			at = append(at, i)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return at, ends
}

// TestHandOffMatchesFence: the same record stream written through EndRecord's
// hand-off — fenced by SealedBytes at every boundary, and not fenced at all
// until Close — and written with an explicit Seal at the same boundaries is
// the same file, reports the same sealed offset at every fence, and shows
// OnSeal the same frame sizes in the same order.
func TestHandOffMatchesFence(t *testing.T) {
	for _, limit := range []int{1 << 10, 64 << 10, DefaultBlockBytes} {
		s := newStream(int64(limit), 3*limit/150+50) // records average ~160 bytes: three blocks or so
		var ref bytes.Buffer
		rw, err := NewWriter(&ref, testMagic, testVersion)
		if err != nil {
			t.Fatal(err)
		}
		at, ends := s.fenced(t, rw, limit)
		if len(at) < 2 {
			t.Fatalf("limit %d: the stream crosses %d auto-seals, want a few", limit, len(at))
		}
		for _, fenceEach := range []bool{true, false} {
			var out bytes.Buffer
			var seen []int64
			w, err := NewWriter(&out, testMagic, testVersion)
			if err != nil {
				t.Fatal(err)
			}
			if limit != DefaultBlockBytes {
				w.BlockBytes = limit
			}
			prev := int64(headerLen)
			w.OnSeal = func(n int) { prev += int64(n); seen = append(seen, prev) }
			next := 0
			for i := range s.vals {
				s.write(w, i)
				if next < len(at) && i == at[next] {
					if w.blockRecords != 0 {
						t.Fatalf("limit %d: record %d ends a block by the rule, and the writer kept it pending", limit, i)
					}
					if fenceEach && w.SealedBytes() != ends[next] {
						t.Fatalf("limit %d: SealedBytes after record %d = %d, the fenced writer's %d", limit, i, w.SealedBytes(), ends[next])
					}
					next++
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), ref.Bytes()) {
				t.Errorf("limit %d, fenceEach %v: %d bytes through the hand-off, %d through explicit seals, or they differ", limit, fenceEach, out.Len(), ref.Len())
			}
			if !slices.Equal(seen, ends) {
				t.Errorf("limit %d, fenceEach %v: OnSeal saw frames ending at %v, want %v", limit, fenceEach, seen, ends)
			}
		}
	}
}

// failingWriter lets its first good-1 writes through and lands half of the
// next, with an error; a write after that is the bug the test is looking for.
type failingWriter struct {
	buf    bytes.Buffer
	good   int
	writes int
	after  int // writes that arrived after the failed one
}

var errDiskFull = errors.New("disk full")

func (f *failingWriter) Write(p []byte) (int, error) {
	f.writes++
	switch {
	case f.writes < f.good:
		return f.buf.Write(p)
	case f.writes == f.good:
		f.buf.Write(p[:len(p)/2])
		return len(p) / 2, errDiskFull
	}
	f.after++
	return len(p), nil
}

// TestFailingOutput: whichever frame's write fails, handed off or fenced, the
// output is a prefix of the good file that ends inside that frame, nothing is
// written after it, the error is parked by the time the next hand-off has
// happened, and the next fence and Close return it.
func TestFailingOutput(t *testing.T) {
	const limit = 1 << 10
	s := newStream(5, 80)
	var ref bytes.Buffer
	rw, err := NewWriter(&ref, testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	at, ends := s.fenced(t, rw, limit)
	frames := len(ends)
	if frames < 6 || frames != len(at)+1 {
		t.Fatalf("%d frames after %d auto-seals: want several, and one more from Close", frames, len(at))
	}
	for k := 1; k <= frames; k++ {
		out := &failingWriter{good: k + 1} // write 1 is the header
		w, err := NewWriter(out, testMagic, testVersion)
		if err != nil {
			t.Fatal(err)
		}
		w.BlockBytes = limit
		for i := range s.vals {
			s.write(w, i)
		}
		// Frame k+1's hand-off joined frame k; only the last two frames have
		// no hand-off behind them.
		if k < frames-1 && !errors.Is(w.Err(), errDiskFull) {
			t.Errorf("frame %d failed and Err() = %v after %d more hand-offs", k, w.Err(), frames-1-k)
		}
		if err := w.Seal(); !errors.Is(err, errDiskFull) {
			t.Errorf("frame %d failed: the next fence returned %v", k, err)
		}
		if err := w.Close(); !errors.Is(err, errDiskFull) {
			t.Errorf("frame %d failed: Close returned %v", k, err)
		}
		start := int64(headerLen)
		if k > 1 {
			start = ends[k-2]
		}
		got := out.buf.Bytes()
		if !bytes.HasPrefix(ref.Bytes(), got) || int64(len(got)) <= start || int64(len(got)) >= ends[k-1] {
			t.Errorf("frame %d failed: output is %d bytes, want a prefix of the good file ending inside that frame (%d to %d)", k, len(got), start, ends[k-1])
		}
		if out.after != 0 || w.SealedBytes() != start {
			t.Errorf("frame %d failed: %d writes followed it, SealedBytes = %d, want 0 and %d", k, out.after, w.SealedBytes(), start)
		}
	}
}

// TestTornHandOffRewinds: a crash injected into a handed-off block leaves half
// a frame behind the previous block, which is where SealedBytes stays; the
// records go on being encoded until the next fence reports the crash; and
// Rewind to the sealed offset, then the same records again, finishes the
// reference file.
func TestTornHandOffRewinds(t *testing.T) {
	const limit = 2 << 10
	s := newStream(11, 120)
	var ref bytes.Buffer
	rw, err := NewWriter(&ref, testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	at, ends := s.fenced(t, rw, limit)
	if len(at) < 4 {
		t.Fatalf("only %d auto-seals", len(at))
	}
	const torn = 3 // the third frame, an auto-seal with hand-offs on either side
	path := filepath.Join(t.TempDir(), "torn.seg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := NewWriter(f, testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	w.BlockBytes = limit
	crash, hits := errors.New("killed"), 0
	w.CrashHook = func() error {
		if hits++; hits == torn {
			return crash
		}
		return nil
	}
	for i := range s.vals {
		s.write(w, i)
	}
	if err := w.Seal(); !errors.Is(err, crash) {
		t.Fatalf("the fence after the torn hand-off returned %v", err)
	}
	if hits != torn {
		t.Errorf("CrashHook ran %d times, want %d: a frame was assembled after the torn one", hits, torn)
	}
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if w.SealedBytes() != ends[torn-2] || st.Size() <= ends[torn-2] || st.Size() >= ends[torn-1] {
		t.Fatalf("sealed %d, file %d bytes; want sealed at %d and a torn frame short of %d", w.SealedBytes(), st.Size(), ends[torn-2], ends[torn-1])
	}
	w.CrashHook = nil
	if err := w.Rewind(w.SealedBytes()); err != nil {
		t.Fatal(err)
	}
	for i := at[torn-2] + 1; i < len(s.vals); i++ {
		s.write(w, i)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref.Bytes()) {
		t.Errorf("rewound file is %d bytes, the reference %d, or they differ", len(got), ref.Len())
	}
}

// sealing counts the goroutines inside writeFrame right now.
func sealing() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "segment.(*Writer).writeFrame")
}

// TestNothingLeftSealing: the goroutine a hand-off starts is gone once the
// writer has been closed and once a fence has returned an error (an
// abandoned writer is TestEveryFenceJoins' Wait row).
func TestNothingLeftSealing(t *testing.T) {
	s := newStream(3, 60)
	for _, out := range []io.Writer{io.Discard, &failingWriter{good: 3}} {
		w, err := NewWriter(out, testMagic, testVersion)
		if err != nil {
			t.Fatal(err)
		}
		w.BlockBytes = 1 << 10
		for i := range s.vals {
			s.write(w, i)
		}
		if err := w.Close(); (err != nil) != (out != io.Discard) {
			t.Fatalf("Close on %T = %v", out, err)
		}
		if n := sealing(); n != 0 {
			t.Errorf("%d goroutines sealing after Close on %T", n, out)
		}
	}
}

// gatedFile is an output that, once gate is set, holds a write until the gate
// is closed, and notes every call that reaches it while one is held.
type gatedFile struct {
	*os.File
	gate    chan struct{}
	holding chan struct{} // receives when a write starts being held
	held    atomic.Bool
	early   []string
}

// reached notes call if a write is being held.
func (g *gatedFile) reached(call string) {
	if g.held.Load() {
		g.early = append(g.early, call)
	}
}

func (g *gatedFile) Write(p []byte) (int, error) {
	if g.gate != nil {
		g.reached("Write")
		g.held.Store(true)
		g.holding <- struct{}{}
		<-g.gate
		g.held.Store(false)
	}
	return g.File.Write(p)
}

func (g *gatedFile) Truncate(n int64) error { g.reached("Truncate"); return g.File.Truncate(n) }
func (g *gatedFile) Sync() error            { g.reached("Sync"); return g.File.Sync() }

// TestEveryFenceJoins: with a handed-off block held up inside its write, each
// fence — and Wait, which is all an abandoned writer gets — waits for that
// block before it touches the output or reports an offset, leaves no
// goroutine sealing, and (Rewind apart, which cuts it off again) finds the
// block covered by SealedBytes. Wait seals nothing: the records behind the
// hand-off stay pending.
func TestEveryFenceJoins(t *testing.T) {
	s := newStream(3, 60)
	for _, fence := range []struct {
		name string
		call func(*Writer) error
	}{
		{"Wait", (*Writer).Wait},
		{"Seal", (*Writer).Seal},
		{"Close", (*Writer).Close},
		{"Sync", (*Writer).Sync},
		{"SealedBytes", func(w *Writer) error { w.SealedBytes(); return nil }},
		{"Rewind", func(w *Writer) error { return w.Rewind(int64(headerLen)) }},
	} {
		f, err := os.Create(filepath.Join(t.TempDir(), "gated.seg"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		out := &gatedFile{File: f}
		w, err := NewWriter(out, testMagic, testVersion)
		if err != nil {
			t.Fatal(err)
		}
		w.BlockBytes = 1 << 10
		out.gate, out.holding = make(chan struct{}), make(chan struct{}, 1)
		n := 0
		for ; w.blockRecords != 0 || n == 0; n++ {
			s.write(w, n) // up to the first hand-off
		}
		s.write(w, n) // and one record behind it
		<-out.holding // the handed-off block has reached the output
		// The gate opens once the fence is waiting for the block — or, if it
		// never does, after it has had every chance to run into the held write.
		go func() {
			buf := make([]byte, 1<<20)
			for i := 0; i < 10000 && !bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("segment.(*Writer).Wait")); i++ {
				runtime.Gosched()
			}
			close(out.gate)
		}()
		if err := fence.call(w); err != nil {
			t.Fatalf("%s: %v", fence.name, err)
		}
		if len(out.early) != 0 {
			t.Errorf("%s reached the output's %v while the handed-off block was still being written", fence.name, out.early)
		}
		if n := sealing(); n != 0 {
			t.Errorf("%s returned with %d goroutines sealing", fence.name, n)
		}
		st, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		switch fence.name {
		case "Rewind":
			if st.Size() != int64(headerLen) || w.sealed != int64(headerLen) {
				t.Errorf("Rewind to the header left a file of %d bytes, sealed %d", st.Size(), w.sealed)
			}
		case "Seal", "Close":
			if w.blockRecords != 0 || w.sealed != st.Size() {
				t.Errorf("%s: %d records pending, sealed %d of %d bytes", fence.name, w.blockRecords, w.sealed, st.Size())
			}
		default:
			if w.blockRecords != 1 || w.sealed != st.Size() || st.Size() <= int64(headerLen) {
				t.Errorf("%s: %d records pending, sealed %d of %d bytes; want the handed-off block covered and the record behind it pending", fence.name, w.blockRecords, w.sealed, st.Size())
			}
		}
	}
}

// TestOversizeBlockRefused: a block that would inflate past MaxBlockBytes is
// one the package's own Reader takes for a torn tail, so the Writer refuses
// to frame it, whether BlockBytes let it grow that far or one record did:
// EndRecord parks ErrBlockTooLarge, Seal and Close return it, no frame is
// written and the blocks before it read back whole.
func TestOversizeBlockRefused(t *testing.T) {
	for _, oneRecord := range []bool{false, true} {
		var out bytes.Buffer
		w, err := NewWriter(&out, testMagic, testVersion)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			writeRecord(w, i)
		}
		if err := w.Seal(); err != nil {
			t.Fatal(err)
		}
		good := out.Len()
		if oneRecord {
			w.Raw(make([]byte, MaxBlockBytes+1))
			w.EndRecord()
		} else {
			w.BlockBytes = MaxBlockBytes + 1
			chunk := make([]byte, 1<<20)
			for i := 0; i <= MaxBlockBytes/len(chunk); i++ {
				w.Raw(chunk)
				w.EndRecord()
			}
		}
		if !errors.Is(w.Err(), ErrBlockTooLarge) {
			t.Errorf("oneRecord %v: Err() after EndRecord = %v, want ErrBlockTooLarge", oneRecord, w.Err())
		}
		if err := w.Seal(); !errors.Is(err, ErrBlockTooLarge) {
			t.Errorf("oneRecord %v: Seal = %v, want ErrBlockTooLarge", oneRecord, err)
		}
		if err := w.Close(); !errors.Is(err, ErrBlockTooLarge) {
			t.Errorf("oneRecord %v: Close = %v, want ErrBlockTooLarge", oneRecord, err)
		}
		if out.Len() != good {
			t.Errorf("oneRecord %v: %d bytes were written for the refused block", oneRecord, out.Len()-good)
		}
		blocks, records, r, err := readAll(out.Bytes(), 4)
		if err != nil || blocks != 1 || records != 4 || r.Torn() {
			t.Errorf("oneRecord %v: the output reads as %d blocks, %d records, torn %v, err %v", oneRecord, blocks, records, r.Torn(), err)
		}
	}
}

// TestReaderAcceptsEveryWrittenFrame is the property behind the refusal: over
// seeded streams and block sizes, a block of exactly MaxBlockBytes included,
// every frame a Writer wrote passes the Reader's scan and Decompress, and the
// frames carry every record.
func TestReaderAcceptsEveryWrittenFrame(t *testing.T) {
	check := func(what string, data []byte, want int) {
		t.Helper()
		records := 0
		for _, f := range frames(t, data) { // fatal on a stream that scans as torn
			if _, err := Decompress(f); err != nil {
				t.Fatalf("%s: a frame the Writer wrote is refused: %v", what, err)
			}
			records += int(f.Count)
		}
		if records != want {
			t.Errorf("%s: frames carry %d records, want %d", what, records, want)
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		var out bytes.Buffer
		w, err := NewWriter(&out, testMagic, testVersion)
		if err != nil {
			t.Fatal(err)
		}
		w.BlockBytes = 1 + rand.New(rand.NewSource(seed)).Intn(8<<10)
		s := newStream(seed, 200)
		for i := range s.vals {
			s.write(w, i)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		check("seeded stream", out.Bytes(), len(s.vals))
	}
	var out bytes.Buffer
	w, err := NewWriter(&out, testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	w.BlockBytes = MaxBlockBytes
	w.Raw(make([]byte, MaxBlockBytes))
	w.EndRecord()
	if err := w.Close(); err != nil {
		t.Fatalf("a block of exactly MaxBlockBytes: %v", err)
	}
	check("block at the bound", out.Bytes(), 1)
}

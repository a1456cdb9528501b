// Package dataset serializes campaign events to a compact, replayable log —
// the counterpart of the paper's published measurement data (Appendix A),
// which uses dictionary-based compression over the raw dig/mtr output.
//
// The container is the sealed-segment format (internal/segment): a raw
// "RGDS" magic and varint version, then length+CRC framed DEFLATE blocks
// with per-block string interning. Each block is self-contained, so a crash
// can at worst tear the trailing block, which Reader detects and cleanly
// truncates instead of erroring mid-stream. This package owns the record
// encodings (probe/transfer events), the failpoint sites, and the metrics;
// the framing mechanics live in segment and are shared with the qlog flight
// recorder. A Writer doubles as a measure.Handler so a campaign can be
// recorded while analyses run; a Reader replays the events into the same
// handlers later. A Writer is also a checkpoint.Part: reopened over an
// interrupted recording it rewinds to the last checkpointed block, which is
// how rootmeasure survives kill/restart cycles byte-identically.
package dataset

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/dnssec"
	"repro/internal/failpoint"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/rss"
	"repro/internal/segment"
	"repro/internal/topology"
	"repro/internal/vantage"
	"repro/internal/zonemd"
)

// magic identifies the format; version gates incompatible changes.
// Version 2 introduced the sealed-block framing (length + CRC + per-block
// dictionary) that makes recordings crash-recoverable; version 3 the
// description record, and blocks sealed at segment's DEFLATE level 5.
const (
	magic   = "RGDS"
	version = 3
)

// record kinds. A description is the only record of the first frame.
const (
	recProbe       = 1
	recTransfer    = 2
	recDescription = 3
)

// error classes for transfer outcomes (reconstructed on replay so
// errors.Is keeps working).
const (
	errNone = iota
	errExpired
	errNotIncepted
	errBogus
	errZonemdDigest
	errOther
)

// Writer records campaign events into sealed blocks.
type Writer struct {
	*segment.Writer

	// Probes and Transfers count written events.
	Probes, Transfers int
}

// hook wires the dataset-owned failpoint site and seal metrics into a
// segment writer. The mid-frame crash site tears the frame on the output
// and parks the error so no later write can extend the torn tail, while
// the recorded sealed offset still ends at the previous block. Both run on
// whichever goroutine seals the block: the writer's own for a block handed
// off at BlockBytes, the caller's at a fence. Blocks seal in order either way.
func hook(w *segment.Writer) {
	w.CrashHook = func() error { return failpoint.Eval("dataset/seal/partial") }
	w.OnSeal = func(frameBytes int) {
		mBlocksSealed.Inc()
		mBytesSealed.Add(int64(frameBytes))
	}
}

// NewWriter starts a dataset on out, writing the file header immediately.
func NewWriter(out io.Writer) (*Writer, error) {
	seg, err := segment.NewWriter(out, magic, version)
	if err != nil {
		return nil, err
	}
	hook(seg)
	return &Writer{Writer: seg}, nil
}

// Describe writes run — what a reader needs to rebuild the world these events
// are of — as JSON in a sealed frame of its own, before the first event. A
// writer reopened over an interrupted recording finds it there and skips it.
func (d *Writer) Describe(run any) error {
	desc, err := json.Marshal(run)
	if err != nil {
		return fmt.Errorf("dataset: description: %w", err)
	}
	if d.Probes+d.Transfers > 0 {
		return errors.New("dataset: Describe after the first event")
	}
	d.Uvarint(recDescription)
	d.Uvarint(uint64(len(desc)))
	d.Raw(desc)
	d.EndRecord()
	return d.Seal()
}

// ReadDescription decodes the description a recording opens with into run and
// rewinds in, for the NewReader or NewWriter that comes next. A recording
// written without Describe replays through NewReader like any other; it just
// cannot say what run made it, and that is an error here.
func ReadDescription(in io.ReadSeeker, run any) error {
	seg, err := segment.NewReader(in, magic, version)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	var desc []byte
	f, err := seg.ScanFrame()
	if err == nil {
		desc, err = segment.Decompress(f)
	}
	if err == nil {
		rr := segment.NewRecordReader(desc)
		if kind, _ := rr.Uvarint(); kind != recDescription {
			err = fmt.Errorf("first record is of kind %d", kind)
		} else if desc, err = rr.Bytes(); err == nil {
			err = json.Unmarshal(desc, run)
		}
	}
	if err != nil {
		return fmt.Errorf("dataset: recording does not open with a description of its run: %w", err)
	}
	_, err = in.Seek(0, io.SeekStart)
	return err
}

// writerState is the opaque blob stored in campaign checkpoints.
type writerState struct {
	Offset    int64 `json:"offset"`
	Probes    int   `json:"probes"`
	Transfers int   `json:"transfers"`
}

// CheckpointSeal implements checkpoint.Part: it seals the pending block,
// syncs the underlying file when possible, and returns the writer's resume
// state for the checkpoint sidecar. An injected dataset write error surfaces
// here before any bytes move, so the campaign can count it against the error
// budget and retry.
func (d *Writer) CheckpointSeal() ([]byte, error) {
	if err := failpoint.Eval("dataset/seal"); err != nil {
		return nil, err
	}
	if err := d.Seal(); err != nil {
		return nil, err
	}
	if err := d.Sync(); err != nil {
		return nil, err
	}
	return json.Marshal(writerState{Offset: d.SealedBytes(), Probes: d.Probes, Transfers: d.Transfers})
}

// RestoreCheckpoint implements checkpoint.Part for a writer opened over an
// interrupted recording (NewWriter on the file, not truncated): it rewinds
// the output to the sealed offset in state and restores the event counters.
// The next block starts with a fresh dictionary, exactly as it would have in
// an uninterrupted run, so the resumed file is byte-identical.
func (d *Writer) RestoreCheckpoint(state []byte) error {
	var st writerState
	if err := json.Unmarshal(state, &st); err != nil {
		return fmt.Errorf("dataset: bad resume state: %w", err)
	}
	if err := d.Rewind(st.Offset); err != nil {
		return err
	}
	d.Probes, d.Transfers = st.Probes, st.Transfers
	return nil
}

// HandleProbe implements measure.Handler.
func (d *Writer) HandleProbe(e measure.ProbeEvent) {
	if d.Err() != nil {
		return
	}
	d.Uvarint(recProbe)
	d.Uvarint(uint64(e.Tick.Index))
	d.Uvarint(uint64(e.Tick.Time.Unix()))
	d.Uvarint(uint64(e.VPIdx))
	d.Intern(e.Target.Key())
	flags := uint64(0)
	if e.Lost {
		flags |= 1
	}
	if e.STLOK {
		flags |= 2
	}
	if e.SiteKind == 1 {
		flags |= 4
	}
	if e.Degraded {
		flags |= 8
	}
	d.Uvarint(flags)
	d.Probes++
	mRecords.Inc()
	if e.Lost {
		d.EndRecord()
		return
	}
	d.Intern(e.SiteID)
	d.Intern(e.Identifier)
	d.Intern(e.Facility)
	d.Intern(e.SiteCity.IATA)
	d.Uvarint(uint64(e.RTTms * 100)) // centi-milliseconds
	d.Uvarint(uint64(len(e.ASPath)))
	for _, asn := range e.ASPath {
		d.Uvarint(uint64(asn))
	}
	d.Intern(e.SecondToLast)
	d.EndRecord()
}

// HandleTransfer implements measure.Handler.
func (d *Writer) HandleTransfer(e measure.TransferEvent) {
	if d.Err() != nil {
		return
	}
	d.Uvarint(recTransfer)
	d.Uvarint(uint64(e.Tick.Index))
	d.Uvarint(uint64(e.Tick.Time.Unix()))
	d.Uvarint(uint64(e.VPIdx))
	d.Intern(e.Target.Key())
	flags := uint64(0)
	if e.Lost {
		flags |= 1
	}
	if e.ComparisonMismatch {
		flags |= 2
	}
	if e.Bitflip != nil {
		flags |= 4
	}
	if e.Degraded {
		flags |= 8
	}
	d.Uvarint(flags)
	d.Transfers++
	mRecords.Inc()
	if e.Lost {
		d.EndRecord()
		return
	}
	d.Uvarint(uint64(e.Serial))
	d.Uvarint(uint64(e.Fault))
	d.Uvarint(uint64(classifyErr(e.DNSSECErr)))
	d.Uvarint(uint64(classifyErr(e.ZonemdErr)))
	if e.Bitflip != nil {
		d.Intern(e.Bitflip.Before)
		d.Intern(e.Bitflip.After)
	}
	d.EndRecord()
}

func classifyErr(err error) int {
	switch {
	case err == nil:
		return errNone
	case errors.Is(err, dnssec.ErrSignatureExpired):
		return errExpired
	case errors.Is(err, dnssec.ErrSignatureNotIncepted):
		return errNotIncepted
	case errors.Is(err, dnssec.ErrBogusSignature):
		return errBogus
	case errors.Is(err, zonemd.ErrDigestMismatch):
		return errZonemdDigest
	default:
		return errOther
	}
}

func rebuildErr(class int) error {
	switch class {
	case errNone:
		return nil
	case errExpired:
		return dnssec.ErrSignatureExpired
	case errNotIncepted:
		return dnssec.ErrSignatureNotIncepted
	case errBogus:
		return dnssec.ErrBogusSignature
	case errZonemdDigest:
		return zonemd.ErrDigestMismatch
	default:
		return errUnclassified
	}
}

// targets holds the targets by slot, built once for targetOf.
var targets = func() (bySlot [rss.Slots]rss.ServiceAddr) {
	for _, t := range rss.AllServiceAddrs() {
		slot, _ := t.Slot()
		bySlot[slot] = t
	}
	return bySlot
}()

// targetOf is the inverse of rss.ServiceAddr.Key, read off the key's
// characters. Replay refuses the "" a target outside rss.AllServiceAddrs got.
func targetOf(key string) (rss.ServiceAddr, bool) {
	t := rss.ServiceAddr{Family: topology.IPv4, Old: len(key) == 3}
	if len(key) < 2 || len(key) > 3 || (t.Old && key[2] != 'o') || (key[1] != '4' && key[1] != '6') {
		return t, false
	}
	if key[1] == '6' {
		t.Family = topology.IPv6
	}
	t.Letter = rss.Letter(key[:1])
	slot, ok := t.Slot()
	return targets[slot], ok
}

// Reader replays a dataset into handlers, tolerating a torn trailing block.
// Decoding is block-at-a-time: the segment framing makes every sealed block
// independently decompressible, which is what lets ReplayWith fan blocks
// out to a worker pool while an ordered drain keeps delivery byte-identical
// to a serial read.
type Reader struct {
	*segment.Reader
	pop *vantage.Population
	// cities resolves metro codes back to geo.City.
	cities map[string]geo.City
}

// NewReader opens a dataset. The population must be the one the recording
// campaign used: that of the world ReadDescription names.
func NewReader(in io.Reader, pop *vantage.Population) (*Reader, error) {
	seg, err := segment.NewReader(in, magic, version)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	cities := make(map[string]geo.City)
	for _, c := range geo.Cities() {
		cities[c.IATA] = c
	}
	return &Reader{Reader: seg, pop: pop, cities: cities}, nil
}

// block is one decoded block: the events as typed runs, and the order their
// records came in. kinds describes the successfully decoded prefix; at most
// one error is set. tearErr means the block's bytes are corrupt (CRC or
// DEFLATE) — replay truncates there, delivering nothing from this block.
// decodeErr is a real format error inside verified bytes — replay delivers
// the prefix, then fails, exactly as the old record-interleaved loop did.
//
// The slices are slabs, decoded into over whatever the last block left. What
// events point to is never reused (see blockDecoder): handlers receive events
// by value and may keep any string, AS path or Bitflip.
type block struct {
	probes    []measure.ProbeEvent
	transfers []measure.TransferEvent
	kinds     []byte // recProbe or recTransfer per record, in record order
	tearErr   error
	decodeErr error
}

const (
	// minRecordBytes is the least a recorded event takes: kind, tick index,
	// a five-byte Unix time, VP index, target reference, flags.
	minRecordBytes = 10
	// asPathChunk AS numbers are allocated at once: a few allocations per
	// block instead of one per probe.
	asPathChunk = 8192
)

// blockDecoder verifies and decodes sealed blocks one after another on one
// goroutine, keeping its inflater, record reader and dictionary backing. What
// it gives an event to point to is allocated fresh and handed out once:
// strings own their bytes, an AS path is a capacity-clipped cut of a chunk no
// other path shares a word of, a Bitflip is its own allocation.
type blockDecoder struct {
	pop    *vantage.Population
	cities map[string]geo.City
	inf    segment.Inflater
	rr     segment.RecordReader
	asns   []int // what is left of the current AS-path chunk
}

func (d *Reader) newDecoder() *blockDecoder {
	return &blockDecoder{pop: d.pop, cities: d.cities}
}

// decode verifies f and decodes it into b, over whatever b held.
func (d *blockDecoder) decode(f segment.Frame, b *block) {
	b.probes, b.transfers, b.kinds = b.probes[:0], b.transfers[:0], b.kinds[:0]
	b.tearErr, b.decodeErr = nil, nil
	payload, err := d.inf.Decompress(f)
	if err != nil {
		b.tearErr = err
		return
	}
	d.rr.Reset(payload)
	if cap(b.kinds) == 0 {
		// A first use sizes the slabs. The header's count sits outside the
		// CRC, so it is believed no further than the payload could bear out;
		// each run gets a good half, and append covers a lopsided mix.
		n := min(int(f.Count), len(payload)/minRecordBytes)
		b.kinds = make([]byte, 0, n)
		b.probes = make([]measure.ProbeEvent, 0, n/2+n/16)
		b.transfers = make([]measure.TransferEvent, 0, n/2+n/16)
	}
	b.decodeErr = d.decodeAll(f.Count, b)
}

// decodeAll decodes records until the payload is exhausted, enforcing the
// declared record count in both directions.
//
//rootlint:hotpath
func (d *blockDecoder) decodeAll(count uint32, b *block) error {
	left := count
	for d.rr.Len() > 0 {
		kind, err := d.rr.Uvarint()
		if err != nil {
			//rootlint:allow hotpath: cold error return, ends the replay
			return fmt.Errorf("dataset: record kind: %w", err)
		}
		if left == 0 {
			return errors.New("dataset: more records than block header declared")
		}
		left--
		switch kind {
		case recProbe:
			b.probes = append(b.probes, measure.ProbeEvent{})
			if err := d.readProbe(&b.probes[len(b.probes)-1]); err != nil {
				b.probes = b.probes[:len(b.probes)-1]
				return err
			}
		case recTransfer:
			b.transfers = append(b.transfers, measure.TransferEvent{})
			if err := d.readTransfer(&b.transfers[len(b.transfers)-1]); err != nil {
				b.transfers = b.transfers[:len(b.transfers)-1]
				return err
			}
		case recDescription:
			// For ReadDescription: a replay was given the world it names.
			if _, err := d.rr.Bytes(); err != nil {
				return err
			}
			continue
		default:
			//rootlint:allow hotpath: cold error return, ends the replay
			return fmt.Errorf("dataset: unknown record kind %d", kind)
		}
		b.kinds = append(b.kinds, byte(kind))
	}
	if left != 0 {
		//rootlint:allow hotpath: cold error return, ends the replay
		return fmt.Errorf("dataset: block ended with %d records unread", left)
	}
	return nil
}

// Replay streams every event into the handlers, returning the counts. A
// torn trailing block (crash mid-write) is truncated, not an error; check
// Torn() to distinguish a clean end from a recovered one. Replay is the
// serial form of ReplayWith — see there for parallel decode, checkpoints,
// and resume.
//
//rootlint:allow deadcode: bench/layers.go and bench/traced.go replay through it
func (d *Reader) Replay(handlers ...measure.Handler) (probes, transfers int, err error) {
	return d.ReplayWith(ReplayOptions{}, handlers...)
}

// readCommon decodes the fields every record opens with, and returns its flags.
//
//rootlint:hotpath
func (d *blockDecoder) readCommon(tick *measure.Tick, vp **vantage.VP, vpIdx *int, target *rss.ServiceAddr) (flags uint64, err error) {
	idx, err := d.rr.Uvarint()
	if err != nil {
		return 0, err
	}
	unix, err := d.rr.Uvarint()
	if err != nil {
		return 0, err
	}
	v, err := d.rr.Uvarint()
	if err != nil {
		return 0, err
	}
	if v >= uint64(len(d.pop.VPs)) {
		return 0, errors.New("dataset: VP index out of range")
	}
	tk, err := d.rr.Str()
	if err != nil {
		return 0, err
	}
	t, ok := targetOf(tk)
	if !ok {
		//rootlint:allow hotpath: cold error return, ends the replay
		return 0, fmt.Errorf("dataset: unknown target %q", tk)
	}
	if flags, err = d.rr.Uvarint(); err != nil {
		return 0, err
	}
	*tick = measure.Tick{Index: int(idx), Time: time.Unix(int64(unix), 0).UTC()}
	*vp, *vpIdx, *target = &d.pop.VPs[v], int(v), t
	return flags, nil
}

// readProbe decodes one probe record into e, which arrives zeroed.
//
//rootlint:hotpath
func (d *blockDecoder) readProbe(e *measure.ProbeEvent) error {
	flags, err := d.readCommon(&e.Tick, &e.VP, &e.VPIdx, &e.Target)
	if err != nil {
		return err
	}
	e.Lost = flags&1 != 0
	e.STLOK = flags&2 != 0
	e.Degraded = flags&8 != 0
	if flags&4 != 0 {
		e.SiteKind = 1
	}
	if e.Lost {
		return nil
	}
	if e.SiteID, err = d.rr.Str(); err != nil {
		return err
	}
	if e.Identifier, err = d.rr.Str(); err != nil {
		return err
	}
	if e.Facility, err = d.rr.Str(); err != nil {
		return err
	}
	iata, err := d.rr.Str()
	if err != nil {
		return err
	}
	e.SiteCity = d.cities[iata]
	rtt, err := d.rr.Uvarint()
	if err != nil {
		return err
	}
	e.RTTms = float64(rtt) / 100
	n, err := d.rr.Uvarint()
	if err != nil {
		return err
	}
	if n > 64 {
		return errors.New("dataset: implausible AS path length")
	}
	if uint64(len(d.asns)) < n {
		d.asns = make([]int, asPathChunk)
	}
	e.ASPath, d.asns = d.asns[:n:n], d.asns[n:]
	for i := range e.ASPath {
		asn, err := d.rr.Uvarint()
		if err != nil {
			return err
		}
		e.ASPath[i] = int(asn)
	}
	if e.SecondToLast, err = d.rr.Str(); err != nil {
		return err
	}
	return nil
}

// errUnclassified replays a validation error outside the recorded classes.
var errUnclassified = errors.New("dataset: unclassified validation error")

// readTransfer decodes one transfer record into e, which arrives zeroed.
//
//rootlint:hotpath
func (d *blockDecoder) readTransfer(e *measure.TransferEvent) error {
	flags, err := d.readCommon(&e.Tick, &e.VP, &e.VPIdx, &e.Target)
	if err != nil {
		return err
	}
	e.Lost = flags&1 != 0
	e.ComparisonMismatch = flags&2 != 0
	e.Degraded = flags&8 != 0
	if e.Lost {
		return nil
	}
	serial, err := d.rr.Uvarint()
	if err != nil {
		return err
	}
	e.Serial = uint32(serial)
	fault, err := d.rr.Uvarint()
	if err != nil {
		return err
	}
	e.Fault = faults.Kind(fault)
	dclass, err := d.rr.Uvarint()
	if err != nil {
		return err
	}
	e.DNSSECErr = rebuildErr(int(dclass))
	zclass, err := d.rr.Uvarint()
	if err != nil {
		return err
	}
	e.ZonemdErr = rebuildErr(int(zclass))
	if flags&4 != 0 {
		flip := new(faults.Bitflip) // a handler may keep it: never recycled
		if flip.Before, err = d.rr.Str(); err != nil {
			return err
		}
		if flip.After, err = d.rr.Str(); err != nil {
			return err
		}
		e.Bitflip = flip
	}
	return nil
}

// Close releases the reader (nothing to release in the block format; kept
// for API symmetry with Writer).
func (d *Reader) Close() error { return nil }

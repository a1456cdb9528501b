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

// targets holds the targets by slot, built once: a replayed event's Target.
var targets = func() (bySlot [rss.Slots]rss.ServiceAddr) {
	for _, t := range rss.AllServiceAddrs() {
		slot, _ := t.Slot()
		bySlot[slot] = t
	}
	return bySlot
}()

// slotOf is the inverse of rss.ServiceAddr.Key, read off the key's
// characters. Replay refuses the "" a target outside rss.AllServiceAddrs got.
func slotOf(key string) (int, bool) {
	t := rss.ServiceAddr{Family: topology.IPv4, Old: len(key) == 3}
	if len(key) < 2 || len(key) > 3 || (t.Old && key[2] != 'o') || (key[1] != '4' && key[1] != '6') {
		return 0, false
	}
	if key[1] == '6' {
		t.Family = topology.IPv6
	}
	t.Letter = rss.Letter(key[:1])
	return t.Slot()
}

// Reader replays a dataset into handlers, tolerating a torn trailing block.
// Decoding is block-at-a-time: the segment framing makes every sealed block
// independently decompressible, which is what lets ReplayWith fan blocks
// out to a worker pool while an ordered drain keeps delivery byte-identical
// to a serial read.
type Reader struct {
	*segment.Reader
	pop *vantage.Population
	// cities is geo.Cities() behind the zero City, which a metro code outside
	// the catalog replays as; cityOf maps a metro code to its index there.
	cities []geo.City
	cityOf map[string]uint16
}

// NewReader opens a dataset. The population must be the one the recording
// campaign used: that of the world ReadDescription names.
func NewReader(in io.Reader, pop *vantage.Population) (*Reader, error) {
	seg, err := segment.NewReader(in, magic, version)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	cities := append([]geo.City{{}}, geo.Cities()...)
	cityOf := make(map[string]uint16, len(cities))
	for i := 1; i < len(cities); i++ {
		cityOf[cities[i].IATA] = uint16(i)
	}
	return &Reader{Reader: seg, pop: pop, cities: cities, cityOf: cityOf}, nil
}

// rec is one decoded record, held until the drain builds its event from it:
// 64 bytes and no pointer, so a window of decoded blocks is small and the
// collector never scans it. What the event points to lives in the record's
// block and is named here by index. A field whose comment names a probe or a
// transfer is set for that kind of record only.
type rec struct {
	tick, unix uint64
	// num is a probe's RTT in centi-milliseconds, a transfer's fault kind.
	num uint64
	vp  uint32
	// A probe's site, identifier, facility and second-to-last hop, as
	// indices into block.dict.
	site, ident, fac, stl uint32
	// A probe's AS path is block.asns[asOff : asOff+asLen].
	asOff uint32
	// A transfer's serial, and its Bitflip: block.flips[flip-1], none at 0.
	serial, flip uint32
	// A probe's site city, an index into Reader.cities.
	city                     uint16
	kind, flags, slot, asLen uint8
	// A transfer's error classes, errOther for any class past it.
	dclass, zclass uint8
}

// block is one decoded block: its records in order, and what their events
// point to. The records describe the successfully decoded prefix; at most one
// error is set. tearErr means the block's bytes are corrupt (CRC or DEFLATE) —
// replay truncates there, delivering nothing from this block. decodeErr is a
// real format error inside verified bytes — replay delivers the prefix, then
// fails, exactly as a record-at-a-time loop would.
//
// recs and the backing of dict and flips are decoded into over whatever the
// last block left. What an event points to is never reused: the strings and
// Bitflips are allocated fresh for each block and asns is a new arena, since
// handlers receive events by value and may keep any string, AS path or
// Bitflip.
type block struct {
	recs      []rec
	dict      []string // the block's dictionary, entry 0 ""
	asns      []int
	flips     []*faults.Bitflip
	tearErr   error
	decodeErr error
}

// minRecordBytes is the least a recorded event takes: kind, tick index, a
// five-byte Unix time, VP index, target reference, flags.
const minRecordBytes = 10

// blockDecoder verifies and decodes sealed blocks one after another on one
// goroutine, keeping its inflater and record reader between blocks.
type blockDecoder struct {
	vps    int // the population's size, which a VP index must stay under
	cityOf map[string]uint16
	inf    segment.Inflater
	rr     segment.RecordReader
	// asHint is how many AS numbers the last block held: the next arena is
	// made that size, and a little over, at once.
	asHint int
}

func (d *Reader) newDecoder() *blockDecoder {
	return &blockDecoder{vps: len(d.pop.VPs), cityOf: d.cityOf}
}

// decode verifies f and decodes it into b, over whatever b held.
func (d *blockDecoder) decode(f segment.Frame, b *block) {
	payload, err := d.inf.Decompress(f)
	if err != nil {
		b.recs, b.tearErr, b.decodeErr = b.recs[:0], err, nil
		return
	}
	d.decodePayload(payload, f.Count, b)
}

// decodePayload decodes a verified block's payload, declared to hold count
// records, into b.
func (d *blockDecoder) decodePayload(payload []byte, count uint32, b *block) {
	clear(b.dict) // do not pin the last block's strings
	clear(b.flips)
	b.recs, b.dict, b.flips, b.asns = b.recs[:0], b.dict[:0], b.flips[:0], nil
	b.tearErr = nil
	d.rr.Reset(payload)
	// The header's count sits outside the CRC, so it is believed no further
	// than the payload could bear out.
	if n := min(int(count), len(payload)/minRecordBytes); cap(b.recs) < n {
		b.recs = make([]rec, 0, n)
	}
	if d.asHint > 0 {
		b.asns = make([]int, 0, d.asHint+d.asHint/8)
	}
	b.decodeErr = d.decodeAll(count, b)
	b.dict = append(b.dict, d.rr.Dict()...)
	d.asHint = len(b.asns)
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
		case recProbe, recTransfer:
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
		b.recs = append(b.recs, rec{kind: uint8(kind)})
		r := &b.recs[len(b.recs)-1]
		if kind == recProbe {
			err = d.readProbe(r, b)
		} else {
			err = d.readTransfer(r, b)
		}
		if err != nil {
			b.recs = b.recs[:len(b.recs)-1]
			return err
		}
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

// readCommon decodes the fields every record opens with into r, and returns
// its flags.
//
//rootlint:hotpath
func (d *blockDecoder) readCommon(r *rec) (flags uint64, err error) {
	if r.tick, err = d.rr.Uvarint(); err != nil {
		return 0, err
	}
	if r.unix, err = d.rr.Uvarint(); err != nil {
		return 0, err
	}
	v, err := d.rr.Uvarint()
	if err != nil {
		return 0, err
	}
	if v >= uint64(d.vps) {
		return 0, errors.New("dataset: VP index out of range")
	}
	tk, err := d.rr.Str()
	if err != nil {
		return 0, err
	}
	slot, ok := slotOf(tk)
	if !ok {
		//rootlint:allow hotpath: cold error return, ends the replay
		return 0, fmt.Errorf("dataset: unknown target %q", tk)
	}
	if flags, err = d.rr.Uvarint(); err != nil {
		return 0, err
	}
	// Only the low four bits of the flags mean anything.
	r.vp, r.slot, r.flags = uint32(v), uint8(slot), uint8(flags)
	return flags, nil
}

// readProbe decodes the rest of a probe record into r, appending its AS path
// to b's arena.
//
//rootlint:hotpath
func (d *blockDecoder) readProbe(r *rec, b *block) error {
	flags, err := d.readCommon(r)
	if err != nil || flags&1 != 0 { // a lost probe records nothing more
		return err
	}
	if r.site, err = d.rr.Ref(); err != nil {
		return err
	}
	if r.ident, err = d.rr.Ref(); err != nil {
		return err
	}
	if r.fac, err = d.rr.Ref(); err != nil {
		return err
	}
	iata, err := d.rr.Str()
	if err != nil {
		return err
	}
	r.city = d.cityOf[iata]
	if r.num, err = d.rr.Uvarint(); err != nil {
		return err
	}
	n, err := d.rr.Uvarint()
	if err != nil {
		return err
	}
	if n > 64 {
		return errors.New("dataset: implausible AS path length")
	}
	// The arena never outgrows the payload, nor a uint32: every AS number
	// takes a byte of it at least.
	r.asOff, r.asLen = uint32(len(b.asns)), uint8(n)
	for range n {
		asn, err := d.rr.Uvarint()
		if err != nil {
			return err
		}
		b.asns = append(b.asns, int(asn))
	}
	r.stl, err = d.rr.Ref()
	return err
}

// errUnclassified replays a validation error outside the recorded classes.
var errUnclassified = errors.New("dataset: unclassified validation error")

// readTransfer decodes the rest of a transfer record into r, appending its
// Bitflip to b's.
//
//rootlint:hotpath
func (d *blockDecoder) readTransfer(r *rec, b *block) error {
	flags, err := d.readCommon(r)
	if err != nil || flags&1 != 0 { // a lost transfer records nothing more
		return err
	}
	serial, err := d.rr.Uvarint()
	if err != nil {
		return err
	}
	r.serial = uint32(serial)
	if r.num, err = d.rr.Uvarint(); err != nil {
		return err
	}
	dclass, err := d.rr.Uvarint()
	if err != nil {
		return err
	}
	zclass, err := d.rr.Uvarint()
	if err != nil {
		return err
	}
	r.dclass, r.zclass = uint8(min(dclass, errOther)), uint8(min(zclass, errOther))
	if flags&4 != 0 {
		before, err := d.rr.Str()
		if err != nil {
			return err
		}
		after, err := d.rr.Str()
		if err != nil {
			return err
		}
		// A handler may keep it: never reused.
		b.flips = append(b.flips, &faults.Bitflip{Before: before, After: after})
		r.flip = uint32(len(b.flips))
	}
	return nil
}

// probe builds the event r records; the drain hands it to every handler.
func (d *Reader) probe(b *block, r *rec) measure.ProbeEvent {
	e := measure.ProbeEvent{
		Tick:     measure.Tick{Index: int(r.tick), Time: time.Unix(int64(r.unix), 0).UTC()},
		VP:       &d.pop.VPs[r.vp],
		VPIdx:    int(r.vp),
		Target:   targets[r.slot],
		Lost:     r.flags&1 != 0,
		STLOK:    r.flags&2 != 0,
		Degraded: r.flags&8 != 0,
	}
	if r.flags&4 != 0 {
		e.SiteKind = 1
	}
	if e.Lost {
		return e
	}
	e.SiteID, e.Identifier, e.Facility = b.dict[r.site], b.dict[r.ident], b.dict[r.fac]
	e.SiteCity = d.cities[r.city]
	e.RTTms = float64(r.num) / 100
	end := r.asOff + uint32(r.asLen)
	e.ASPath = b.asns[r.asOff:end:end]
	e.SecondToLast = b.dict[r.stl]
	return e
}

// transfer builds the event r records; the drain hands it to every handler.
func (d *Reader) transfer(b *block, r *rec) measure.TransferEvent {
	e := measure.TransferEvent{
		Tick:               measure.Tick{Index: int(r.tick), Time: time.Unix(int64(r.unix), 0).UTC()},
		VP:                 &d.pop.VPs[r.vp],
		VPIdx:              int(r.vp),
		Target:             targets[r.slot],
		Lost:               r.flags&1 != 0,
		ComparisonMismatch: r.flags&2 != 0,
		Degraded:           r.flags&8 != 0,
	}
	if e.Lost {
		return e
	}
	e.Serial = r.serial
	e.Fault = faults.Kind(r.num)
	e.DNSSECErr = rebuildErr(int(r.dclass))
	e.ZonemdErr = rebuildErr(int(r.zclass))
	if r.flip != 0 {
		e.Bitflip = b.flips[r.flip-1]
	}
	return e
}

// Close releases the reader (nothing to release in the block format; kept
// for API symmetry with Writer).
func (d *Reader) Close() error { return nil }

// Package dataset serializes campaign events to a compact, replayable log —
// the counterpart of the paper's published measurement data (Appendix A),
// which uses dictionary-based compression over the raw dig/mtr output.
//
// The container is the sealed-segment format (internal/segment): a raw
// "RGDS" magic and varint version, then length+CRC framed DEFLATE blocks
// with per-block string interning. A record says what changed since the
// block's earlier records: the tick once per tick, the target by slot, and a
// probe's site and AS path, or a transfer's serial, only where they differ
// from the block's last (see HandleProbe). That state starts over with each
// block, as the dictionary does, so each block is self-contained: a crash
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
	"slices"
	"time"

	"repro/internal/dnssec"
	"repro/internal/failpoint"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/rss"
	"repro/internal/segment"
	"repro/internal/vantage"
	"repro/internal/zonemd"
)

// magic identifies the format; version gates incompatible changes.
// Version 2 introduced the sealed-block framing (length + CRC + per-block
// dictionary) that makes recordings crash-recoverable; version 3 the
// description record; version 4 records what changed: a tick once, a target
// by its slot, and a probe's site and AS path or a transfer's serial only
// where the block has not said them already. A reader refuses any other.
const (
	magic   = "RGDS"
	version = 4
)

// blockBytes is where a dataset block is handed off to be sealed: about as
// many version-4 events as 512 KB held in version 3, so a block, and replay's
// window of decoded blocks, holds what it did.
const blockBytes = 256 << 10

// Every record opens with one varint: its kind in the low kindBits bits, its
// flags above them.
const kindBits = 2

// record kinds. A description is the only record of the first frame.
const (
	recProbe       = 1
	recTransfer    = 2
	recDescription = 3
)

// Record flags. Those a common record sets come first, so that its header
// fits in one byte. The two "same" flags name what a record leaves out
// because its block has said it already.
const (
	// flagSTL is a probe's STLOK, a transfer's ComparisonMismatch.
	flagSTL = 1 << iota
	// flagKind is a probe's SiteKind 1; on a transfer, a Bitflip follows.
	flagKind
	// flagSameSite: the probe's site tuple is the one its (VP, slot) last
	// recorded in the block.
	flagSameSite
	// flagSamePath: the probe's AS path is the one its (VP, slot) last
	// recorded in the block; the transfer's serial is the block's last.
	flagSamePath
	flagLost
	flagDegraded
	// flagTick: a tick index and Unix time follow, and the records after this
	// one in the block are of that tick until the next that carries it.
	flagTick
	flagsKnown = 1<<iota - 1
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

	// What the pending block has said, which its later records leave out.
	// begin starts it over where a block opens. block numbers the blocks
	// opened; a cell of another block's number is stale.
	block              uint32
	tickIdx            int
	tickUnix           int64
	serial             uint32
	tickSet, serialSet bool
	// cells holds per vp·rss.Slots + slot what the VP's last probe of the
	// target in the block recorded; paths holds the AS paths they name, a
	// copy of the caller's.
	cells []cell
	paths []int
}

// cell is what a (VP, slot)'s last probe with a site recorded in a block.
type cell struct {
	block        uint32
	site         site
	asOff, asLen int
}

// site is a probe's site tuple: where it landed and through which last hop.
type site struct{ id, ident, fac, iata, stl string }

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
	seg.BlockBytes = blockBytes
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
		if h, _ := rr.Uvarint(); h != recDescription {
			err = fmt.Errorf("first record is of kind %d", h&(1<<kindBits-1))
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

// begin opens a record of tick t. It starts the block's state over when
// the record opens a block, and returns flagTick when t is not the block's
// current tick, which it then becomes.
func (d *Writer) begin(t measure.Tick) uint64 {
	if d.Fresh() {
		d.block++
		d.tickSet, d.serialSet = false, false
		d.paths = d.paths[:0]
	}
	unix := t.Time.Unix()
	if d.tickSet && t.Index == d.tickIdx && unix == d.tickUnix {
		return 0
	}
	d.tickSet, d.tickIdx, d.tickUnix = true, t.Index, unix
	return flagTick
}

// head writes what every event record opens with: kind and flags, the tick
// when the flags say it changes, the VP index and the target's slot. A
// target outside rss.AllServiceAddrs is written as slot rss.Slots, which
// replay refuses.
func (d *Writer) head(kind, flags uint64, vp, slot int) {
	d.Uvarint(kind | flags<<kindBits)
	if flags&flagTick != 0 {
		d.Uvarint(uint64(d.tickIdx))
		d.Uvarint(uint64(d.tickUnix))
	}
	d.Uvarint(uint64(vp))
	d.Uvarint(uint64(slot))
}

// slotFor is the slot a record names target by.
func slotFor(target rss.ServiceAddr) int {
	if slot, ok := target.Slot(); ok {
		return slot
	}
	return rss.Slots
}

// cell returns the pending block's cell for (vp, slot), stale or not, and
// nil where no table row fits: a probe there records in full.
func (d *Writer) cell(vp, slot int) *cell {
	if vp < 0 || slot >= rss.Slots {
		return nil
	}
	i := vp*rss.Slots + slot
	if i >= len(d.cells) {
		d.cells = slices.Grow(d.cells, i+1-len(d.cells))[:i+1]
	}
	return &d.cells[i]
}

// HandleProbe implements measure.Handler. A probe record is the header
// (kind, flags), the tick if it changes, VP index and slot; then, unless
// lost, the RTT, and the site tuple and the AS path unless the flags say
// they are the ones its (VP, slot) last recorded in the block. Paths are
// compared with the writer's own copy, not with the slice of an earlier
// event, which the caller may reuse.
func (d *Writer) HandleProbe(e measure.ProbeEvent) {
	if d.Err() != nil {
		return
	}
	flags := d.begin(e.Tick)
	if e.STLOK {
		flags |= flagSTL
	}
	if e.SiteKind == 1 {
		flags |= flagKind
	}
	if e.Degraded {
		flags |= flagDegraded
	}
	slot := slotFor(e.Target)
	var c *cell
	st := site{e.SiteID, e.Identifier, e.Facility, e.SiteCity.IATA, e.SecondToLast}
	if e.Lost {
		flags |= flagLost
	} else if c = d.cell(e.VPIdx, slot); c != nil && c.block == d.block {
		if c.site == st {
			flags |= flagSameSite
		}
		if slices.Equal(d.paths[c.asOff:c.asOff+c.asLen], e.ASPath) {
			flags |= flagSamePath
		}
	}
	d.head(recProbe, flags, e.VPIdx, slot)
	d.Probes++
	mRecords.Inc()
	if e.Lost {
		d.EndRecord()
		return
	}
	d.Uvarint(measure.CentiMs(e.RTTms))
	if flags&flagSameSite == 0 {
		d.Intern(st.id)
		d.Intern(st.ident)
		d.Intern(st.fac)
		d.Intern(st.iata)
		d.Intern(st.stl)
	}
	if flags&flagSamePath == 0 {
		d.Uvarint(uint64(len(e.ASPath)))
		for _, asn := range e.ASPath {
			d.Uvarint(uint64(asn))
		}
	}
	d.EndRecord()
	if c != nil {
		if flags&flagSamePath == 0 {
			c.asOff, c.asLen = len(d.paths), len(e.ASPath)
			d.paths = append(d.paths, e.ASPath...)
		}
		c.block, c.site = d.block, st
	}
}

// HandleTransfer implements measure.Handler. A transfer record is the
// header, the tick if it changes, VP index and slot; then, unless lost, the
// serial unless it is the block's last, fault kind, error classes and a
// bitflip's strings.
func (d *Writer) HandleTransfer(e measure.TransferEvent) {
	if d.Err() != nil {
		return
	}
	flags := d.begin(e.Tick)
	if e.ComparisonMismatch {
		flags |= flagSTL
	}
	if e.Bitflip != nil {
		flags |= flagKind
	}
	if e.Degraded {
		flags |= flagDegraded
	}
	if e.Lost {
		flags |= flagLost
	} else if d.serialSet && e.Serial == d.serial {
		flags |= flagSamePath
	}
	d.head(recTransfer, flags, e.VPIdx, slotFor(e.Target))
	d.Transfers++
	mRecords.Inc()
	if e.Lost {
		d.EndRecord()
		return
	}
	if flags&flagSamePath == 0 {
		d.Uvarint(uint64(e.Serial))
		d.serial, d.serialSet = e.Serial, true
	}
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

// minRecordBytes is the least a recorded event takes: header, VP index and
// slot, for a lost event of its block's current tick.
const minRecordBytes = 3

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

	// What the block being decoded has said, as its writer kept it. block
	// numbers the blocks begun; last holds per vp·rss.Slots + slot the
	// block's last probe record with a site, stale when of another block.
	block              uint32
	last               []lastProbe
	tick, unix         uint64
	serial             uint32
	tickSet, serialSet bool
}

// lastProbe names a probe record: the block it is of and its index in
// block.recs.
type lastProbe struct{ block, rec uint32 }

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
	if d.last == nil {
		d.last = make([]lastProbe, d.vps*rss.Slots)
	}
	d.block++
	d.tickSet, d.serialSet = false, false
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
		h, err := d.rr.Uvarint()
		if err != nil {
			//rootlint:allow hotpath: cold error return, ends the replay
			return fmt.Errorf("dataset: record header: %w", err)
		}
		if left == 0 {
			return errors.New("dataset: more records than block header declared")
		}
		left--
		kind, flags := h&(1<<kindBits-1), h>>kindBits
		if flags&^flagsKnown != 0 {
			return errors.New("dataset: unknown record flags")
		}
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
		b.recs = append(b.recs, rec{kind: uint8(kind), flags: uint8(flags)})
		r := &b.recs[len(b.recs)-1]
		if err = d.readCommon(r); err == nil && flags&flagLost == 0 { // a lost event records nothing more
			if kind == recProbe {
				err = d.readProbe(r, b)
			} else {
				err = d.readTransfer(r, b)
			}
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

// readCommon decodes into r what every event record has after its header:
// the tick, when the record changes it, the VP index and the slot.
//
//rootlint:hotpath
func (d *blockDecoder) readCommon(r *rec) (err error) {
	if r.flags&flagTick != 0 {
		if d.tick, err = d.rr.Uvarint(); err != nil {
			return err
		}
		if d.unix, err = d.rr.Uvarint(); err != nil {
			return err
		}
		d.tickSet = true
	} else if !d.tickSet {
		return errors.New("dataset: record before its block's first tick")
	}
	r.tick, r.unix = d.tick, d.unix
	v, err := d.rr.Uvarint()
	if err != nil {
		return err
	}
	if v >= uint64(d.vps) {
		return errors.New("dataset: VP index out of range")
	}
	slot, err := d.rr.Uvarint()
	if err != nil {
		return err
	}
	if slot >= rss.Slots {
		return errors.New("dataset: target slot out of range")
	}
	r.vp, r.slot = uint32(v), uint8(slot)
	return nil
}

// errNoEarlier is a probe that repeats what its (VP, slot) has not recorded
// in the block.
var errNoEarlier = errors.New("dataset: a probe repeats its VP and target's last in the block, and there is none")

// readProbe decodes the rest of a probe record into r: the RTT, then the
// site tuple and AS path, read or taken from its (VP, slot)'s last probe in
// the block. A new path goes into b's arena; a repeated one names the
// earlier.
//
//rootlint:hotpath
func (d *blockDecoder) readProbe(r *rec, b *block) (err error) {
	if r.num, err = d.rr.Uvarint(); err != nil {
		return err
	}
	cell := &d.last[int(r.vp)*rss.Slots+int(r.slot)]
	var prev *rec
	if cell.block == d.block {
		prev = &b.recs[cell.rec]
	}
	if r.flags&flagSameSite != 0 {
		if prev == nil {
			return errNoEarlier
		}
		r.site, r.ident, r.fac, r.city, r.stl = prev.site, prev.ident, prev.fac, prev.city, prev.stl
	} else if err = d.readSite(r); err != nil {
		return err
	}
	if r.flags&flagSamePath != 0 {
		if prev == nil {
			return errNoEarlier
		}
		r.asOff, r.asLen = prev.asOff, prev.asLen
	} else if err = d.readPath(r, b); err != nil {
		return err
	}
	*cell = lastProbe{d.block, uint32(len(b.recs) - 1)}
	return nil
}

// readSite decodes a probe's site tuple into r.
//
//rootlint:hotpath
func (d *blockDecoder) readSite(r *rec) (err error) {
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
	r.stl, err = d.rr.Ref()
	return err
}

// readPath decodes a probe's AS path onto the end of b's arena.
//
//rootlint:hotpath
func (d *blockDecoder) readPath(r *rec, b *block) error {
	n, err := d.rr.Uvarint()
	if err != nil {
		return err
	}
	if n > 64 {
		return errors.New("dataset: implausible AS path length")
	}
	// The arena never outgrows the payload, nor a uint32: every AS number
	// it holds took a byte of it at least.
	r.asOff, r.asLen = uint32(len(b.asns)), uint8(n)
	for range n {
		asn, err := d.rr.Uvarint()
		if err != nil {
			return err
		}
		b.asns = append(b.asns, int(asn))
	}
	return nil
}

// errUnclassified replays a validation error outside the recorded classes.
var errUnclassified = errors.New("dataset: unclassified validation error")

// readTransfer decodes the rest of a transfer record into r, appending its
// Bitflip to b's.
//
//rootlint:hotpath
func (d *blockDecoder) readTransfer(r *rec, b *block) error {
	if r.flags&flagSamePath == 0 {
		serial, err := d.rr.Uvarint()
		if err != nil {
			return err
		}
		d.serial, d.serialSet = uint32(serial), true
	} else if !d.serialSet {
		return errors.New("dataset: a transfer repeats its block's last serial, and there is none")
	}
	r.serial = d.serial
	var err error
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
	if r.flags&flagKind != 0 {
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
		Lost:     r.flags&flagLost != 0,
		STLOK:    r.flags&flagSTL != 0,
		Degraded: r.flags&flagDegraded != 0,
	}
	if r.flags&flagKind != 0 {
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
		Lost:               r.flags&flagLost != 0,
		ComparisonMismatch: r.flags&flagSTL != 0,
		Degraded:           r.flags&flagDegraded != 0,
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

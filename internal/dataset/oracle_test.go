package dataset

// The replay's compact decoder against a slow, obviously-right one. The
// oracle decodes each record straight into the event a handler receives,
// field by field in the order the writer wrote them; the replay decodes into
// small records and builds the event only as the drain delivers it. Whatever
// the payload, the two must agree on every event, on how many records decode
// before an error, and on whether there is one.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/rss"
	"repro/internal/segment"
	"repro/internal/vantage"
)

// catalog maps each metro code to its city, as the replay once did.
var catalog = func() map[string]geo.City {
	cities := make(map[string]geo.City)
	for _, c := range geo.Cities() {
		cities[c.IATA] = c
	}
	return cities
}()

// oracle decodes one block's payload record by record into events. It keeps
// what the block has said as the writer describes it: the current tick, the
// last serial, and by (VP, target) the last probe that landed somewhere.
type oracle struct {
	pop    *vantage.Population
	cities map[string]geo.City
	rr     *segment.RecordReader
	tick   *measure.Tick
	serial *uint32
	last   map[oracleKey]measure.ProbeEvent
}

type oracleKey struct {
	vp     int
	target rss.ServiceAddr
}

// decoded is what a block decodes to: its events, and the kind of each
// record in order.
type decoded struct {
	probes    []measure.ProbeEvent
	transfers []measure.TransferEvent
	kinds     []byte
}

// oracleDecode decodes payload until it is exhausted or a record fails,
// enforcing the declared count in both directions: the events before the
// failure, and the failure. cities maps a metro code to its catalog entry.
func oracleDecode(pop *vantage.Population, cities map[string]geo.City, payload []byte, count uint32) (decoded, error) {
	o := &oracle{pop: pop, cities: cities, rr: segment.NewRecordReader(payload), last: map[oracleKey]measure.ProbeEvent{}}
	var out decoded
	left := count
	for o.rr.Len() > 0 {
		header, err := o.rr.Uvarint()
		if err != nil {
			return out, err
		}
		if left == 0 {
			return out, errors.New("more records than declared")
		}
		left--
		kind, flags := header%4, header/4
		if flags >= 128 {
			return out, fmt.Errorf("unknown flags %#x", flags)
		}
		switch kind {
		case recProbe:
			var e measure.ProbeEvent
			if err := o.readProbe(&e, flags); err != nil {
				return out, err
			}
			out.probes = append(out.probes, e)
		case recTransfer:
			var e measure.TransferEvent
			if err := o.readTransfer(&e, flags); err != nil {
				return out, err
			}
			out.transfers = append(out.transfers, e)
		case recDescription:
			if _, err := o.rr.Bytes(); err != nil {
				return out, err
			}
			continue
		default:
			return out, fmt.Errorf("unknown record kind %d", kind)
		}
		out.kinds = append(out.kinds, byte(kind))
	}
	if left != 0 {
		return out, fmt.Errorf("%d records unread", left)
	}
	return out, nil
}

// readCommon reads what every event record has after its header: a tick when
// flag 64 says one follows (the block's tick otherwise), VP index, slot.
func (o *oracle) readCommon(flags uint64, tick *measure.Tick, vp **vantage.VP, vpIdx *int, target *rss.ServiceAddr) error {
	if flags&64 != 0 {
		idx, err := o.rr.Uvarint()
		if err != nil {
			return err
		}
		unix, err := o.rr.Uvarint()
		if err != nil {
			return err
		}
		o.tick = &measure.Tick{Index: int(idx), Time: time.Unix(int64(unix), 0).UTC()}
	}
	if o.tick == nil {
		return errors.New("no tick yet")
	}
	v, err := o.rr.Uvarint()
	if err != nil {
		return err
	}
	if v >= uint64(len(o.pop.VPs)) {
		return errors.New("VP index out of range")
	}
	slot, err := o.rr.Uvarint()
	if err != nil {
		return err
	}
	for _, t := range rss.AllServiceAddrs() {
		if s, _ := t.Slot(); uint64(s) == slot {
			*tick, *vp, *vpIdx, *target = *o.tick, &o.pop.VPs[v], int(v), t
			return nil
		}
	}
	return fmt.Errorf("no target has slot %d", slot)
}

// readProbe reads a probe. Flags: 1 STLOK, 2 SiteKind 1, 4 the site as last
// time, 8 the AS path as last time, 16 lost, 32 degraded.
func (o *oracle) readProbe(e *measure.ProbeEvent, flags uint64) error {
	if err := o.readCommon(flags, &e.Tick, &e.VP, &e.VPIdx, &e.Target); err != nil {
		return err
	}
	e.STLOK = flags&1 != 0
	if flags&2 != 0 {
		e.SiteKind = 1
	}
	e.Lost = flags&16 != 0
	e.Degraded = flags&32 != 0
	if e.Lost {
		return nil
	}
	rtt, err := o.rr.Uvarint()
	if err != nil {
		return err
	}
	e.RTTms = float64(rtt) / 100
	key := oracleKey{e.VPIdx, e.Target}
	last, ok := o.last[key]
	if flags&(4|8) != 0 && !ok {
		return errors.New("repeats a probe the block does not hold")
	}
	if flags&4 != 0 {
		e.SiteID, e.Identifier, e.Facility, e.SiteCity, e.SecondToLast =
			last.SiteID, last.Identifier, last.Facility, last.SiteCity, last.SecondToLast
	} else {
		if e.SiteID, err = o.rr.Str(); err != nil {
			return err
		}
		if e.Identifier, err = o.rr.Str(); err != nil {
			return err
		}
		if e.Facility, err = o.rr.Str(); err != nil {
			return err
		}
		iata, err := o.rr.Str()
		if err != nil {
			return err
		}
		e.SiteCity = o.cities[iata]
		if e.SecondToLast, err = o.rr.Str(); err != nil {
			return err
		}
	}
	if flags&8 != 0 {
		e.ASPath = last.ASPath
	} else {
		n, err := o.rr.Uvarint()
		if err != nil {
			return err
		}
		if n > 64 {
			return errors.New("implausible AS path length")
		}
		e.ASPath = make([]int, n)
		for i := range e.ASPath {
			asn, err := o.rr.Uvarint()
			if err != nil {
				return err
			}
			e.ASPath[i] = int(asn)
		}
	}
	o.last[key] = *e
	return nil
}

// readTransfer reads a transfer. Flags: 1 ComparisonMismatch, 2 a Bitflip
// follows, 8 the serial as last time, 16 lost, 32 degraded.
func (o *oracle) readTransfer(e *measure.TransferEvent, flags uint64) error {
	if err := o.readCommon(flags, &e.Tick, &e.VP, &e.VPIdx, &e.Target); err != nil {
		return err
	}
	e.ComparisonMismatch = flags&1 != 0
	e.Lost = flags&16 != 0
	e.Degraded = flags&32 != 0
	if e.Lost {
		return nil
	}
	if flags&8 == 0 {
		serial, err := o.rr.Uvarint()
		if err != nil {
			return err
		}
		o.serial = new(uint32)
		*o.serial = uint32(serial)
	}
	if o.serial == nil {
		return errors.New("repeats a serial the block does not hold")
	}
	e.Serial = *o.serial
	fault, err := o.rr.Uvarint()
	if err != nil {
		return err
	}
	e.Fault = faults.Kind(fault)
	dclass, err := o.rr.Uvarint()
	if err != nil {
		return err
	}
	e.DNSSECErr = rebuildErr(int(dclass))
	zclass, err := o.rr.Uvarint()
	if err != nil {
		return err
	}
	e.ZonemdErr = rebuildErr(int(zclass))
	if flags&2 != 0 {
		flip := new(faults.Bitflip)
		if flip.Before, err = o.rr.Str(); err != nil {
			return err
		}
		if flip.After, err = o.rr.Str(); err != nil {
			return err
		}
		e.Bitflip = flip
	}
	return nil
}

// replayDecode is the replay's decode of a payload plus the events its drain
// builds.
func replayDecode(r *Reader, payload []byte, count uint32) (decoded, error) {
	var b block
	r.newDecoder().decodePayload(payload, count, &b)
	var out decoded
	for i := range b.recs {
		rc := &b.recs[i]
		if rc.kind == recProbe {
			out.probes = append(out.probes, r.probe(&b, rc))
		} else {
			out.transfers = append(out.transfers, r.transfer(&b, rc))
		}
		out.kinds = append(out.kinds, rc.kind)
	}
	return out, b.decodeErr
}

// sameEvents compares two decodes; an AS path of no hops reads the same
// whether it is nil or empty.
func sameEvents(got, want decoded) bool {
	norm := func(d decoded) decoded {
		for i := range d.probes {
			if len(d.probes[i].ASPath) == 0 {
				d.probes[i].ASPath = nil
			}
		}
		return d
	}
	return reflect.DeepEqual(norm(got), norm(want))
}

// FuzzBlockDecode: for any payload and declared count, the replay's decode
// and the oracle's give the same events in the same order, stop after the
// same record, and fail or not alike; neither panics. It is seeded with the
// blocks of recordings that between them hold every record kind and flag:
// synthetic probes, probes and transfers behind a description, probes at
// catalog cities, and rounds of the same (VP, target) pairs whose records
// leave out the site, the path, the serial and the tick their block said.
func FuzzBlockDecode(f *testing.F) {
	pop, cities := synthPop(), catalog
	var atCities bytes.Buffer
	w, err := NewWriter(&atCities)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		p := synthProbe(i)
		p.SiteCity = geo.Cities()[i%len(geo.Cities())]
		p.SiteKind = 1
		p.Degraded = i%4 == 0
		p.Lost = i%9 == 0
		w.HandleProbe(p)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	var flags [recDescription + 1]uint8 // what the seeds' records set, by kind
	for _, data := range [][]byte{
		writeSynthFile(f, 200, 2<<10),
		writeDescribedFile(f, testRun{Seed: 7}, 200, 2<<10),
		atCities.Bytes(),
		writeRepeatsFile(f, 12, 2<<10),
	} {
		r, err := NewReader(bytes.NewReader(data), pop)
		if err != nil {
			f.Fatal(err)
		}
		for {
			fr, err := r.NextFrame()
			if err != nil {
				break
			}
			payload, err := segment.Decompress(fr)
			if err == nil {
				// The count is enforced both ways: a seed that decodes without
				// an error decodes whole, so agreeing on it is agreeing on
				// events, not on an early failure.
				_, err = oracleDecode(pop, cities, payload, fr.Count)
			}
			if err != nil {
				f.Fatalf("seed block: %v", err)
			}
			var b block
			r.newDecoder().decodePayload(payload, fr.Count, &b)
			for _, rc := range b.recs {
				flags[rc.kind] |= rc.flags
			}
			f.Add(payload, fr.Count)
		}
	}
	// A transfer has no site tuple, so no flagSameSite.
	if flags[recProbe] != flagsKnown || flags[recTransfer] != flagsKnown&^flagSameSite {
		f.Fatalf("the seeds' probes set flags %#x and their transfers %#x, want every one", flags[recProbe], flags[recTransfer])
	}
	r, err := NewReader(bytes.NewReader([]byte{'R', 'G', 'D', 'S', version}), pop)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, payload []byte, count uint32) {
		want, wantErr := oracleDecode(pop, cities, payload, count)
		got, gotErr := replayDecode(r, payload, count)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("replay decode fails with %v, the oracle with %v", gotErr, wantErr)
		}
		if !sameEvents(got, want) {
			t.Fatalf("replay decodes %d records (%v), the oracle %d (%v):\n%+v\n%+v",
				len(got.kinds), gotErr, len(want.kinds), wantErr, got, want)
		}
	})
}

// TestRecordHoldsNoPointer: a decoded record is at most 64 bytes and holds
// nothing the collector would scan — no pointer, string, slice, map, channel,
// func or interface, at any depth — which is what keeps a window of decoded
// blocks small and off the mark phase.
func TestRecordHoldsNoPointer(t *testing.T) {
	if size := unsafe.Sizeof(rec{}); size > 64 {
		t.Errorf("rec is %d bytes, want at most 64", size)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		default:
			t.Errorf("rec%s is a %s, which the collector scans", path, typ.Kind())
		}
	}
	walk("", reflect.TypeOf(rec{}))
}

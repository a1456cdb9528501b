package dataset

// The version-4 record layout, pinned. A record leaves out what its block has
// said already: the tick, a probe's site tuple and AS path by (VP, slot), a
// transfer's serial. So a record that repeats what the block never said is a
// decode error; TestRecordReplayRoundTrip shows that a block's first record
// carries everything.

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/segment"
)

// writeRepeatsFile records a stream shaped to set every flag: 24 (VP, target)
// pairs probed round after round at one tick a round, sites that move every
// fifth round, paths that change every seventh probe, lost and degraded
// events, and transfers whose serial holds for ten of them.
func writeRepeatsFile(t testing.TB, rounds, blockBytes int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.BlockBytes = blockBytes
	for round := 0; round < rounds; round++ {
		tick := synthProbe(round).Tick
		for pair := 0; pair < 24; pair++ {
			p := synthProbe(pair)
			p.Tick = tick
			if round%5 == 4 {
				p.SiteID = "moved"
			}
			if (round+pair)%7 == 0 {
				p.ASPath = append(p.ASPath, 3356)
			}
			p.Lost = (round*24+pair)%13 == 0
			p.Degraded = p.Lost && round%2 == 0
			w.HandleProbe(p)
			if pair%4 == 0 {
				tr := synthTransfer(round*24 + pair)
				tr.Tick = tick
				tr.ComparisonMismatch = round%3 == 1
				tr.Degraded = tr.Lost && round%2 == 0
				w.HandleTransfer(tr)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recordBytes assembles a block payload from the uvarints of its records.
func recordBytes(fields ...uint64) []byte {
	var out []byte
	for _, v := range fields {
		out = binary.AppendUvarint(out, v)
	}
	return out
}

// TestRepeatWithNothingEarlierIsAnError: a record that leaves out what its
// block never said — a site or a path its (VP, slot) has not recorded, a
// serial before the block's first, a tick before the first — ends the replay
// in a decode error after the records before it, at any worker count, and
// the oracle agrees. What a block said does not carry into the next.
func TestRepeatWithNothingEarlierIsAnError(t *testing.T) {
	const unix = 1696118400
	probe := func(flags uint64, vp, slot uint64, body ...uint64) []byte {
		head := []uint64{recProbe | flags<<kindBits}
		if flags&flagTick != 0 {
			head = append(head, 7, unix)
		}
		return recordBytes(append(append(head, vp, slot), body...)...)
	}
	site := []uint64{0, 0, 0, 0, 0} // five references to the dictionary's ""
	path := []uint64{2, 64500, 3356}
	landed := append(append([]uint64{1250}, site...), path...) // RTT, site tuple, path
	full := probe(flagTick, 1, 3, landed...)
	type blk = [][]byte // a block's records
	for _, tc := range []struct {
		name   string
		blocks []blk
		want   int // events delivered before the error
	}{
		{"same site, first in block", []blk{{probe(flagTick|flagSameSite, 1, 3, append([]uint64{1250}, path...)...)}}, 0},
		{"same path, first in block", []blk{{probe(flagTick|flagSamePath, 1, 3, append([]uint64{1250}, site...)...)}}, 0},
		{"same site, other VP", []blk{{full, probe(flagSameSite|flagSamePath, 2, 3, 1250)}}, 1},
		{"same site, other slot", []blk{{full, probe(flagSameSite|flagSamePath, 1, 4, 1250)}}, 1},
		{"same site, earlier lost", []blk{{probe(flagTick|flagLost, 1, 3), probe(flagSameSite|flagSamePath, 1, 3, 1250)}}, 1},
		{"same site, earlier block", []blk{{full}, {probe(flagTick|flagSameSite|flagSamePath, 1, 3, 1250)}}, 1},
		{"same serial, first in block", []blk{{recordBytes(recTransfer|(flagTick|flagSamePath)<<kindBits, 7, unix, 1, 3, 0, 0, 0)}}, 0},
		{"no tick yet", []blk{{probe(0, 1, 3, landed...)}}, 0},
		{"tick in an earlier block", []blk{{full}, {probe(0, 1, 3, landed...)}}, 1},
	} {
		var buf bytes.Buffer
		w, err := segment.NewWriter(&buf, magic, version)
		if err != nil {
			t.Fatal(err)
		}
		for _, records := range tc.blocks {
			for _, r := range records {
				w.Raw(r)
				w.EndRecord()
			}
			if err := w.Seal(); err != nil {
				t.Fatal(err)
			}
		}
		last := tc.blocks[len(tc.blocks)-1]
		if _, err := oracleDecode(synthPop(), catalog, bytes.Join(last, nil), uint32(len(last))); err == nil {
			t.Errorf("%s: the oracle decodes the failing block", tc.name)
		}
		for _, workers := range []int{1, 4} {
			r, err := NewReader(bytes.NewReader(buf.Bytes()), synthPop())
			if err != nil {
				t.Fatal(err)
			}
			var h countingHandler
			n, _, err := r.ReplayWith(ReplayOptions{Workers: workers}, &h)
			if err == nil || r.Torn() || n != tc.want || h.probes != tc.want {
				t.Errorf("%s, workers=%d: err %v, torn %v, %d probes returned, %d delivered; want a decode error after %d",
					tc.name, workers, err, r.Torn(), n, h.probes, tc.want)
			}
		}
	}
}

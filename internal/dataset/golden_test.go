package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/measure"
	"repro/internal/zone"
)

// TestRecordingGoldenDigest pins the bytes of the .rgds a small campaign
// writes, wire check on: the window and thinning cross a bitflipped, a skewed
// and a stale transfer and both b.root eras (the test checks that they do).
// Every event field, the encoder, the block layout and the deflate level are
// in the digest, so it moves only when a recording does; a change that means
// to keep recordings byte-identical leaves it alone.
func TestRecordingGoldenDigest(t *testing.T) {
	w := testWorld(t)
	cfg := measure.DefaultConfig()
	cfg.Start = time.Date(2023, 10, 1, 0, 0, 0, 0, time.UTC)
	cfg.End = time.Date(2023, 12, 23, 0, 0, 0, 0, time.UTC)
	cfg.Scale = 192
	cfg.TLDCount = 10
	cfg.WireCheck = true
	cfg.Workers = 2
	c := measure.NewCampaign(cfg, w)
	// The default plan's stale sites are chosen by region; name ones this
	// small world's VPs reach, so that the window holds a stale transfer.
	catch := w.Catchments["d"][0]
	for i := range c.Plan.Stales {
		routes := catch.Choices(w.Population.VPs[i].ASN, 1).Routes
		if routes.Len() == 0 {
			t.Fatalf("VP %d has no route to d.root", i)
		}
		c.Plan.Stales[i].SiteIDs = []string{routes.At(0).Origin.SiteID}
	}
	var buf bytes.Buffer
	writer, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	col := &collector{}
	if err := c.Run(writer, col); err != nil {
		t.Fatal(err)
	}
	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}
	if len(c.WireFailures) > 0 {
		t.Fatalf("wire check: %v", c.WireFailures)
	}
	seen := map[faults.Kind]int{}
	pre, post := 0, 0
	for _, te := range col.transfers {
		seen[te.Fault]++
		if !te.Lost && zone.SerialCompare(te.Serial, 2023112700) < 0 {
			pre++
		} else if !te.Lost {
			post++
		}
	}
	if seen[faults.ClockSkew] == 0 || seen[faults.StaleZone] == 0 ||
		seen[faults.BitflipSignature]+seen[faults.BitflipName] == 0 || pre == 0 || post == 0 {
		t.Fatalf("window too thin for a golden: faults %v, transfers before/after the renumbering %d/%d", seen, pre, post)
	}
	sum := sha256.Sum256(buf.Bytes())
	const want = "133cc6a19ef3b001942d1afa861c7b017cb750ac4c0dc75c12007eb3fd99e0a6"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("recording drifted: %d events in %d bytes\n got %s\nwant %s",
			writer.Probes+writer.Transfers, buf.Len(), got, want)
	}
}

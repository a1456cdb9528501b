package measure

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/anycast"
	"repro/internal/dnssec"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/rss"
	"repro/internal/topology"
	"repro/internal/vantage"
	"repro/internal/zonemd"
)

func TestBaseInterval(t *testing.T) {
	cases := []struct {
		t    time.Time
		want time.Duration
	}{
		{time.Date(2023, 7, 10, 0, 0, 0, 0, time.UTC), 30 * time.Minute},
		{time.Date(2023, 9, 15, 0, 0, 0, 0, time.UTC), 15 * time.Minute},
		{time.Date(2023, 10, 15, 0, 0, 0, 0, time.UTC), 30 * time.Minute},
		{time.Date(2023, 11, 25, 0, 0, 0, 0, time.UTC), 15 * time.Minute},
		{time.Date(2023, 12, 10, 0, 0, 0, 0, time.UTC), 30 * time.Minute},
	}
	for _, c := range cases {
		if got := BaseInterval(c.t); got != c.want {
			t.Errorf("BaseInterval(%s) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestTicksCoverStudy(t *testing.T) {
	ticks := Ticks(StudyStart, StudyEnd, 1)
	// 174 days at 30 min = 8352 plus fast-window densification.
	if len(ticks) < 8500 || len(ticks) > 10500 {
		t.Errorf("full-fidelity ticks = %d", len(ticks))
	}
	scaled := Ticks(StudyStart, StudyEnd, 48)
	if len(scaled) < 150 || len(scaled) > 260 {
		t.Errorf("scaled ticks = %d", len(scaled))
	}
	for i := 1; i < len(scaled); i++ {
		if !scaled[i].Time.After(scaled[i-1].Time) {
			t.Fatal("ticks not increasing")
		}
		if scaled[i].Index != i {
			t.Fatal("tick indices not sequential")
		}
	}
}

func TestSerialAt(t *testing.T) {
	am := time.Date(2023, 11, 27, 9, 0, 0, 0, time.UTC)
	pm := time.Date(2023, 11, 27, 15, 0, 0, 0, time.UTC)
	if got := SerialAt(am); got != 2023112700 {
		t.Errorf("am serial = %d", got)
	}
	if got := SerialAt(pm); got != 2023112701 {
		t.Errorf("pm serial = %d", got)
	}
	if !SerialPublishedAt(pm).Equal(time.Date(2023, 11, 27, 12, 0, 0, 0, time.UTC)) {
		t.Errorf("published at = %v", SerialPublishedAt(pm))
	}
}

// bestRoute returns asn's preferred route into the catchment, if it has one.
func bestRoute(c *anycast.Catchment, asn int) (topology.Route, bool) {
	rs := c.Choices(asn, 1).Routes
	if rs.Len() == 0 {
		return topology.Route{}, false
	}
	return rs.At(0), true
}

// testWorld builds a small world for campaign tests.
func testWorld(t *testing.T) *World {
	t.Helper()
	cfg := DefaultConfig()
	cfg.TLDCount = 15
	topoCfg := topology.Config{
		Seed: 2,
		StubsPerRegion: map[geo.Region]int{
			geo.Africa: 3, geo.Asia: 6, geo.Europe: 20,
			geo.NorthAmerica: 10, geo.SouthAmerica: 4, geo.Oceania: 4,
		},
		Tier2PerRegion: map[geo.Region]int{
			geo.Africa: 2, geo.Asia: 2, geo.Europe: 4,
			geo.NorthAmerica: 3, geo.SouthAmerica: 2, geo.Oceania: 2,
		},
	}
	vpCfg := vantage.DefaultConfig()
	vpCfg.Scale = 20 // ~33 VPs
	w, err := NewWorld(cfg, topoCfg, vpCfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// collector accumulates events for assertions.
type collector struct {
	probes    []ProbeEvent
	transfers []TransferEvent
}

func (c *collector) HandleProbe(e ProbeEvent)       { c.probes = append(c.probes, e) }
func (c *collector) HandleTransfer(e TransferEvent) { c.transfers = append(c.transfers, e) }

func runShortCampaign(t *testing.T, w *World, start, end time.Time, scale int) *collector {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Start, cfg.End, cfg.Scale = start, end, scale
	cfg.TLDCount = 15
	c := NewCampaign(cfg, w)
	col := &collector{}
	if err := c.Run(col); err != nil {
		t.Fatal(err)
	}
	return col
}

func TestCampaignEmitsEvents(t *testing.T) {
	w := testWorld(t)
	start := time.Date(2023, 8, 1, 0, 0, 0, 0, time.UTC)
	col := runShortCampaign(t, w, start, start.Add(3*time.Hour), 2)
	nVPs := len(w.Population.VPs)
	nTargets := 28
	ticks := Ticks(start, start.Add(3*time.Hour), 2)
	wantProbes := nVPs * nTargets * len(ticks)
	if len(col.probes) != wantProbes {
		t.Errorf("probes = %d, want %d", len(col.probes), wantProbes)
	}
	if len(col.transfers) != wantProbes { // after AXFRStart, 1:1 with probes
		t.Errorf("transfers = %d, want %d", len(col.transfers), wantProbes)
	}
	// The vast majority of probes succeed and carry site info.
	ok, lost := 0, 0
	for _, p := range col.probes {
		if p.Lost {
			lost++
			continue
		}
		ok++
		if p.SiteID == "" || p.Facility == "" {
			t.Fatalf("successful probe lacks site: %+v", p)
		}
		if p.RTTms <= 0 {
			t.Fatalf("non-positive RTT: %+v", p)
		}
	}
	if ok < lost*10 {
		t.Errorf("ok=%d lost=%d; loss too high", ok, lost)
	}
}

func TestCampaignNoAXFRBeforeStart(t *testing.T) {
	w := testWorld(t)
	start := time.Date(2023, 7, 10, 0, 0, 0, 0, time.UTC)
	col := runShortCampaign(t, w, start, start.Add(2*time.Hour), 2)
	if len(col.transfers) != 0 {
		t.Errorf("transfers before AXFRStart = %d", len(col.transfers))
	}
	if len(col.probes) == 0 {
		t.Error("no probes")
	}
}

func TestCleanTransfersValidate(t *testing.T) {
	w := testWorld(t)
	start := time.Date(2023, 12, 10, 0, 0, 0, 0, time.UTC)
	col := runShortCampaign(t, w, start, start.Add(2*time.Hour), 1)
	for _, te := range col.transfers {
		if te.Lost {
			continue
		}
		if te.Fault != faults.None {
			continue // planned faults are asserted elsewhere
		}
		if te.ZonemdErr != nil || te.DNSSECErr != nil {
			t.Fatalf("clean transfer failed validation: %+v", te)
		}
		if te.Serial != SerialAt(te.Tick.Time) {
			t.Fatalf("serial mismatch: %d", te.Serial)
		}
	}
}

func TestSkewWindowProducesInceptionErrors(t *testing.T) {
	w := testWorld(t)
	// VP index 2 is skewed on 2023-10-02 22:00-23:00 by the default plan.
	start := time.Date(2023, 10, 2, 22, 0, 0, 0, time.UTC)
	col := runShortCampaign(t, w, start, start.Add(time.Hour), 1)
	found := 0
	for _, te := range col.transfers {
		if te.Fault == faults.ClockSkew {
			found++
			if !errors.Is(te.DNSSECErr, dnssec.ErrSignatureNotIncepted) {
				t.Fatalf("skewed transfer classified as %v", te.DNSSECErr)
			}
			if te.VPIdx != 2 {
				t.Fatalf("skew hit wrong VP %d", te.VPIdx)
			}
		}
	}
	if found == 0 {
		t.Error("no clock-skew events in the skew window")
	}
}

func TestStaleSiteProducesExpiredErrors(t *testing.T) {
	w := testWorld(t)
	start := time.Date(2023, 8, 16, 10, 0, 0, 0, time.UTC)
	cfg := DefaultConfig()
	cfg.Start, cfg.End, cfg.Scale = start, start.Add(2*time.Hour), 1
	cfg.TLDCount = 15
	c := NewCampaign(cfg, w)
	// Make the stale window's site one that some VP actually reaches:
	// pick the d.root site serving the first VP on IPv4.
	catch := w.Catchments["d"][topology.IPv4]
	route, ok := bestRoute(catch, w.Population.VPs[0].ASN)
	if !ok {
		t.Skip("first VP unroutable to d.root")
	}
	c.Plan.Stales[0].SiteIDs = []string{route.Origin.SiteID}
	col := &collector{}
	if err := c.Run(col); err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, te := range col.transfers {
		if te.Fault == faults.StaleZone {
			found++
			if !errors.Is(te.DNSSECErr, dnssec.ErrSignatureExpired) {
				t.Fatalf("stale transfer classified as %v", te.DNSSECErr)
			}
			if te.Target.Letter != "d" {
				t.Fatalf("stale fault on %s.root", te.Target.Letter)
			}
		}
	}
	if found == 0 {
		t.Error("no stale-zone events in the stale window")
	}
}

func TestBitflipProducesBogusSignature(t *testing.T) {
	w := testWorld(t)
	// Default plan: VP 4, b.root old v4, name flip at 2023-11-21 06:00.
	start := time.Date(2023, 11, 21, 6, 0, 0, 0, time.UTC)
	col := runShortCampaign(t, w, start, start.Add(30*time.Minute), 1)
	var sawFlip bool
	for _, te := range col.transfers {
		switch te.Fault {
		case faults.BitflipName:
			sawFlip = true
			if te.Bitflip == nil || te.Bitflip.Before == te.Bitflip.After {
				t.Fatal("name bitflip lacks before/after rendering")
			}
			// Delegation data is unsigned and the ZONEMD digest is still a
			// placeholder on 2023-11-21, so only the reference comparison
			// (the paper's ICANN-download check) can catch this flip.
			if te.ZonemdErr == nil && te.DNSSECErr == nil && !te.ComparisonMismatch {
				t.Fatal("name bitflip went undetected")
			}
		case faults.BitflipSignature:
			sawFlip = true
			if !errors.Is(te.DNSSECErr, dnssec.ErrBogusSignature) {
				t.Fatalf("signature bitflip classified as %v", te.DNSSECErr)
			}
		}
	}
	if !sawFlip {
		t.Error("no bitflip events at the planned time")
	}
}

func TestZonemdRolloutVisibleInTransfers(t *testing.T) {
	w := testWorld(t)
	cfg := DefaultConfig()
	cfg.TLDCount = 15
	c := NewCampaign(cfg, w)

	// Before placeholder date: zone has no ZONEMD record.
	z, err := c.signedZone(2023080100, zonemd.StateAbsent, time.Date(2023, 8, 1, 0, 0, 0, 0, time.UTC), false)
	if err != nil {
		t.Fatal(err)
	}
	if errors.Is(zonemd.Verify(z), zonemd.ErrNoZONEMD) == false {
		t.Error("absent-state zone has a ZONEMD record")
	}
	// Verifiable state validates.
	z2, err := c.signedZone(2023121000, zonemd.StateVerifiable, time.Date(2023, 12, 10, 0, 0, 0, 0, time.UTC), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := zonemd.Verify(z2); err != nil {
		t.Errorf("verifiable-state zone: %v", err)
	}
}

func TestTransferEventTargetsIncludeOldB(t *testing.T) {
	w := testWorld(t)
	start := time.Date(2023, 12, 1, 0, 0, 0, 0, time.UTC)
	col := runShortCampaign(t, w, start, start.Add(time.Hour), 1)
	sawOld := false
	for _, te := range col.transfers {
		if te.Target.Letter == "b" && te.Target.Old {
			sawOld = true
			break
		}
	}
	if !sawOld {
		t.Error("old b.root address not probed")
	}
}

// faultRichConfig is a short window with an explicit worker count that
// covers a planned bitflip and the ZONEMD placeholder state (2023-09-26), so
// the parallel path exercises the zone, validation, and battery caches.
func faultRichConfig(workers int) Config {
	cfg := DefaultConfig()
	cfg.Start = time.Date(2023, 9, 26, 9, 0, 0, 0, time.UTC)
	cfg.End = cfg.Start.Add(3 * time.Hour)
	cfg.Scale = 1
	cfg.TLDCount = 15
	cfg.Workers = workers
	cfg.WireCheck = true
	return cfg
}

// runShortCampaignWorkers runs the fault-rich window to completion.
func runShortCampaignWorkers(t *testing.T, w *World, workers int) *collector {
	t.Helper()
	c := NewCampaign(faultRichConfig(workers), w)
	col := &collector{}
	if err := c.Run(col); err != nil {
		t.Fatal(err)
	}
	return col
}

// TestCampaignParallelMatchesSerial asserts the ordered drain: every event,
// in order, must be identical between a serial and a heavily parallel run.
func TestCampaignParallelMatchesSerial(t *testing.T) {
	w := testWorld(t)
	serial := runShortCampaignWorkers(t, w, 1)
	parallel := runShortCampaignWorkers(t, w, 8)
	if len(serial.probes) != len(parallel.probes) {
		t.Fatalf("probe counts differ: %d vs %d", len(serial.probes), len(parallel.probes))
	}
	if len(serial.transfers) != len(parallel.transfers) {
		t.Fatalf("transfer counts differ: %d vs %d", len(serial.transfers), len(parallel.transfers))
	}
	for i := range serial.probes {
		a, b := serial.probes[i], parallel.probes[i]
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("probe %d differs:\nserial:   %+v\nparallel: %+v", i, a, b)
		}
	}
	for i := range serial.transfers {
		a, b := serial.transfers[i], parallel.transfers[i]
		// Errors are distinct values; compare their rendering (which is what
		// reaches reports) and the rest of the event structurally.
		if errString(a.ZonemdErr) != errString(b.ZonemdErr) || errString(a.DNSSECErr) != errString(b.DNSSECErr) {
			t.Fatalf("transfer %d validation differs: %v/%v vs %v/%v",
				i, a.ZonemdErr, a.DNSSECErr, b.ZonemdErr, b.DNSSECErr)
		}
		a.ZonemdErr, a.DNSSECErr, b.ZonemdErr, b.DNSSECErr = nil, nil, nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("transfer %d differs:\nserial:   %+v\nparallel: %+v", i, a, b)
		}
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestCampaignManyWorkersRace is the race-detector workload: a small
// campaign with far more workers than VPs per shard, crossing a fault
// window so workers contend on the single-flight caches. Run it under
// `go test -race` (make race).
func TestCampaignManyWorkersRace(t *testing.T) {
	w := testWorld(t)
	col := runShortCampaignWorkers(t, w, 16)
	if len(col.probes) == 0 || len(col.transfers) == 0 {
		t.Fatal("parallel campaign produced no events")
	}
}

// TestRTTJitterDistribution checks the splitmix-based jitter stays uniform
// in [0, 2) and deterministic.
func TestRTTJitterDistribution(t *testing.T) {
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		j := rttJitter(1, i%700, i%28, i/700)
		if j < 0 || j >= 2 {
			t.Fatalf("jitter %f out of [0,2)", j)
		}
		sum += j
	}
	if mean := sum / float64(n); mean < 0.95 || mean > 1.05 {
		t.Errorf("jitter mean = %f, want ~1.0", mean)
	}
	if rttJitter(1, 2, 3, 4) != rttJitter(1, 2, 3, 4) {
		t.Error("jitter not deterministic")
	}
}

func TestVPIdentifierObserved(t *testing.T) {
	w := testWorld(t)
	start := time.Date(2023, 8, 1, 0, 0, 0, 0, time.UTC)
	col := runShortCampaign(t, w, start, start.Add(time.Hour), 1)
	identifiers := map[rss.Letter]map[string]bool{}
	for _, p := range col.probes {
		if p.Lost || p.Identifier == "" {
			continue
		}
		if identifiers[p.Target.Letter] == nil {
			identifiers[p.Target.Letter] = map[string]bool{}
		}
		identifiers[p.Target.Letter][p.Identifier] = true
	}
	// IATA-only letters report 3-char codes.
	for id := range identifiers["a"] {
		if len(id) != 3 {
			t.Errorf("a.root identifier %q not a metro code", id)
		}
	}
	if len(identifiers["l"]) == 0 {
		t.Error("no l.root identifiers observed")
	}
}

package measure

import (
	"testing"
	"time"

	"repro/internal/dnsserver"
	"repro/internal/rss"
	"repro/internal/topology"
	"repro/internal/zone"
)

func TestBatteryCleanZone(t *testing.T) {
	w := testWorld(t)
	cfg := DefaultConfig()
	cfg.TLDCount = 15
	c := NewCampaign(cfg, w)
	when := time.Date(2023, 12, 10, 0, 0, 0, 0, time.UTC)
	z, err := c.signedZone(SerialAt(when), 2, SerialPublishedAt(when), false)
	if err != nil {
		t.Fatal(err)
	}
	battery, err := NewBattery(z, dnsserver.Identity{Hostname: "test.site", Version: "v"})
	if err != nil {
		t.Fatal(err)
	}
	res := battery.Run(rss.ServiceAddr{Letter: "a", Family: topology.IPv4}, "test.site")
	if res.Queries < 47 {
		t.Errorf("battery ran %d queries, want >= 47 (Appendix F)", res.Queries)
	}
	if len(res.Failures) != 0 {
		t.Errorf("battery failures on a clean zone: %v", res.Failures)
	}
}

func TestBatteryDetectsWrongIdentity(t *testing.T) {
	w := testWorld(t)
	cfg := DefaultConfig()
	cfg.TLDCount = 15
	c := NewCampaign(cfg, w)
	when := time.Date(2023, 12, 10, 0, 0, 0, 0, time.UTC)
	z, err := c.signedZone(SerialAt(when), 2, SerialPublishedAt(when), false)
	if err != nil {
		t.Fatal(err)
	}
	battery, err := NewBattery(z, dnsserver.Identity{Hostname: "actual", Version: "v"})
	if err != nil {
		t.Fatal(err)
	}
	res := battery.Run(rss.ServiceAddr{Letter: "a", Family: topology.IPv4}, "expected")
	if len(res.Failures) == 0 {
		t.Error("identity mismatch undetected")
	}
}

func TestBatteryBRootEra(t *testing.T) {
	w := testWorld(t)
	cfg := DefaultConfig()
	cfg.TLDCount = 15
	c := NewCampaign(cfg, w)

	// Pre-change serial: the zone must carry old b glue, and the battery's
	// expectation adapts.
	pre := time.Date(2023, 10, 1, 0, 0, 0, 0, time.UTC)
	zPre, err := c.signedZone(SerialAt(pre), 1, SerialPublishedAt(pre), false)
	if err != nil {
		t.Fatal(err)
	}
	bHost := zone.RootServerHosts()[1]
	glue := zPre.Glue(bHost)
	foundOld := false
	for _, rr := range glue {
		if rr.String() != "" && rr.Data.String() == rss.OldBv4 {
			foundOld = true
		}
	}
	if !foundOld {
		t.Errorf("pre-change zone lacks old b.root glue: %v", glue)
	}
	battery, err := NewBattery(zPre, dnsserver.Identity{Hostname: "x", Version: "v"})
	if err != nil {
		t.Fatal(err)
	}
	res := battery.Run(rss.ServiceAddr{Letter: "b", Family: topology.IPv4, Old: true}, "x")
	if len(res.Failures) != 0 {
		t.Errorf("pre-change battery failures: %v", res.Failures)
	}

	// Post-change serial carries the new glue.
	post := time.Date(2023, 12, 10, 0, 0, 0, 0, time.UTC)
	zPost, err := c.signedZone(SerialAt(post), 2, SerialPublishedAt(post), false)
	if err != nil {
		t.Fatal(err)
	}
	foundNew := false
	for _, rr := range zPost.Glue(bHost) {
		if rr.Data.String() == "170.247.170.2" {
			foundNew = true
		}
	}
	if !foundNew {
		t.Error("post-change zone lacks new b.root glue")
	}
}

// TestCampaignWireCheck runs the battery on every tick of a window that
// crosses the noon serial bump, and pins that a battery is built once per
// zone version and reused by the ticks that follow within it.
func TestCampaignWireCheck(t *testing.T) {
	w := testWorld(t)
	cfg := DefaultConfig()
	start := time.Date(2023, 12, 10, 11, 0, 0, 0, time.UTC)
	cfg.Start, cfg.End, cfg.Scale = start, start.Add(2*time.Hour), 1
	cfg.TLDCount = 15
	cfg.WireCheck = true
	c := NewCampaign(cfg, w)
	hits, misses := mBatteryHits.Value(), mBatteryMisses.Value()
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.WireQueries < 47*4 {
		t.Errorf("wire check ran %d queries", c.WireQueries)
	}
	if len(c.WireFailures) != 0 {
		t.Errorf("wire check failures: %v", c.WireFailures[:min(3, len(c.WireFailures))])
	}
	if hits, misses = mBatteryHits.Value()-hits, mBatteryMisses.Value()-misses; hits != 2 || misses != 2 {
		t.Errorf("4 ticks over 2 zone versions: %d batteries reused, %d built, want 2 and 2", hits, misses)
	}
}

package zone

import (
	"fmt"
	"math/rand"
	"net/netip"

	"repro/internal/dnswire"
)

// RootConfig controls synthesis of a root zone.
type RootConfig struct {
	// Serial is the SOA serial (conventionally YYYYMMDDNN).
	Serial uint32
	// TLDCount is the number of top-level domains to delegate. Real TLDs
	// from the catalog are used first, then synthetic xn--style fillers.
	TLDCount int
	// NSPerTLD is how many name servers each TLD delegation lists.
	NSPerTLD int
	// Seed drives deterministic glue-address generation.
	Seed int64
	// OldBRoot emits b.root's pre-renumbering addresses in the apex glue,
	// as the real root zone did before 2023-11-27.
	OldBRoot bool
}

// DefaultRootConfig mirrors the shape of the real root zone at the study's
// scale knob: the real zone has ~1450 TLDs; tests shrink this.
func DefaultRootConfig() RootConfig {
	return RootConfig{
		Serial:   SerialForDate(2023, 7, 3, 0),
		TLDCount: 120,
		NSPerTLD: 4,
		Seed:     1,
	}
}

// realTLDs is a sample of actual top-level domains, used as the first
// delegations of a synthesized root zone. ".ruhr" is included because the
// paper's observed bitflip corrupted it.
var realTLDs = []string{
	"com", "net", "org", "edu", "gov", "mil", "int", "arpa",
	"de", "uk", "fr", "nl", "jp", "cn", "br", "ru", "in", "au", "za", "mx",
	"it", "es", "pl", "se", "no", "fi", "dk", "ch", "at", "be", "cz", "gr",
	"pt", "ie", "nz", "kr", "tw", "sg", "hk", "id", "th", "my", "ph", "vn",
	"ar", "cl", "co", "pe", "ve", "ec", "ng", "ke", "eg", "ma", "tz", "gh",
	"info", "biz", "name", "mobi", "asia", "travel", "jobs", "cat", "tel",
	"ruhr", "berlin", "hamburg", "koeln", "bayern", "nrw", "wien", "tirol",
	"app", "dev", "page", "cloud", "online", "site", "shop", "blog", "wiki",
	"io", "ai", "me", "tv", "cc", "ws", "fm", "am", "gg", "im", "is", "li",
}

// TLDNames returns the TLD names for a zone of the given size.
func TLDNames(count int) []dnswire.Name {
	names := make([]dnswire.Name, 0, count)
	for i := 0; i < count; i++ {
		if i < len(realTLDs) {
			names = append(names, dnswire.MustName(realTLDs[i]+"."))
			continue
		}
		names = append(names, dnswire.MustName(fmt.Sprintf("xn--synth%03d.", i-len(realTLDs))))
	}
	return names
}

// RootServerHosts returns the 13 root server host names a. through m.
func RootServerHosts() []dnswire.Name {
	hosts := make([]dnswire.Name, 13)
	for i := 0; i < 13; i++ {
		hosts[i] = dnswire.MustName(fmt.Sprintf("%c.root-servers.net.", 'a'+i))
	}
	return hosts
}

// SynthesizeRoot builds an unsigned root zone: SOA, apex NS set pointing at
// the 13 root server hosts, root-servers.net glue, and cfg.TLDCount TLD
// delegations with per-TLD name servers and glue. The caller signs it and
// attaches ZONEMD via the dnssec and zonemd packages.
func SynthesizeRoot(cfg RootConfig) *Zone {
	rng := rand.New(rand.NewSource(cfg.Seed))
	z := New(dnswire.Root)

	const (
		apexTTL  = 518400 // 6 days, as in the real root zone NS set
		soaTTL   = 86400
		glueTTL  = 518400
		delegTTL = 172800 // 2 days, real root zone delegation TTL
	)

	z.Add(dnswire.RR{
		Name: dnswire.Root, Class: dnswire.ClassINET, TTL: soaTTL,
		Data: dnswire.SOARecord{
			MName:   dnswire.MustName("a.root-servers.net."),
			RName:   dnswire.MustName("nstld.verisign-grs.com."),
			Serial:  cfg.Serial,
			Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 86400,
		},
	})

	for i, host := range RootServerHosts() {
		z.Add(dnswire.RR{
			Name: dnswire.Root, Class: dnswire.ClassINET, TTL: apexTTL,
			Data: dnswire.NSRecord{Host: host},
		})
		// Glue for the root server hosts themselves, using the well-known
		// service addresses (see the rss package for the authoritative list).
		v4, v6 := WellKnownRootAddr(i)
		if cfg.OldBRoot && i == 1 {
			v4 = netip.MustParseAddr("199.9.14.201")
			v6 = netip.MustParseAddr("2001:500:200::b")
		}
		z.Add(
			dnswire.RR{Name: host, Class: dnswire.ClassINET, TTL: glueTTL,
				Data: dnswire.ARecord{Addr: v4}},
			dnswire.RR{Name: host, Class: dnswire.ClassINET, TTL: glueTTL,
				Data: dnswire.AAAARecord{Addr: v6}},
		)
	}

	for _, tld := range TLDNames(cfg.TLDCount) {
		for k := 0; k < cfg.NSPerTLD; k++ {
			host := dnswire.MustName(fmt.Sprintf("ns%d.%s", k+1, tld))
			z.Add(dnswire.RR{
				Name: tld, Class: dnswire.ClassINET, TTL: delegTTL,
				Data: dnswire.NSRecord{Host: host},
			})
			z.Add(
				dnswire.RR{Name: host, Class: dnswire.ClassINET, TTL: delegTTL,
					Data: dnswire.ARecord{Addr: randomV4(rng)}},
				dnswire.RR{Name: host, Class: dnswire.ClassINET, TTL: delegTTL,
					Data: dnswire.AAAARecord{Addr: randomV6(rng)}},
			)
		}
	}
	return z
}

// SynthesizeRootServersNet builds the root-servers.net zone, which the real
// root servers also serve: SOA, the 13-host NS set, and each host's
// addresses. oldB selects b.root's pre-renumbering addresses.
func SynthesizeRootServersNet(serial uint32, oldB bool) *Zone {
	apex := dnswire.MustName("root-servers.net.")
	z := New(apex)
	const ttl = 3600000
	z.Add(dnswire.RR{
		Name: apex, Class: dnswire.ClassINET, TTL: ttl,
		Data: dnswire.SOARecord{
			MName:   dnswire.MustName("a.root-servers.net."),
			RName:   dnswire.MustName("nstld.verisign-grs.com."),
			Serial:  serial,
			Refresh: 14400, Retry: 7200, Expire: 1209600, Minimum: 3600000,
		},
	})
	for i, host := range RootServerHosts() {
		z.Add(dnswire.RR{
			Name: apex, Class: dnswire.ClassINET, TTL: ttl,
			Data: dnswire.NSRecord{Host: host},
		})
		v4, v6 := WellKnownRootAddr(i)
		if oldB && i == 1 {
			v4 = netip.MustParseAddr("199.9.14.201")
			v6 = netip.MustParseAddr("2001:500:200::b")
		}
		z.Add(
			dnswire.RR{Name: host, Class: dnswire.ClassINET, TTL: ttl,
				Data: dnswire.ARecord{Addr: v4}},
			dnswire.RR{Name: host, Class: dnswire.ClassINET, TTL: ttl,
				Data: dnswire.AAAARecord{Addr: v6}},
		)
	}
	return z
}

// WellKnownRootAddr returns the IPv4 and IPv6 service addresses of root
// letter index i (0 = a.root). For b.root it returns the post-renumbering
// (new) addresses; the rss package carries the old ones too.
func WellKnownRootAddr(i int) (netip.Addr, netip.Addr) {
	v4 := []string{
		"198.41.0.4", "170.247.170.2", "192.33.4.12", "199.7.91.13",
		"192.203.230.10", "192.5.5.241", "192.112.36.4", "198.97.190.53",
		"192.36.148.17", "192.58.128.30", "193.0.14.129", "199.7.83.42",
		"202.12.27.33",
	}
	v6 := []string{
		"2001:503:ba3e::2:30", "2801:1b8:10::b", "2001:500:2::c",
		"2001:500:2d::d", "2001:500:a8::e", "2001:500:2f::f",
		"2001:500:12::d0d", "2001:500:1::53", "2001:7fe::53",
		"2001:503:c27::2:30", "2001:7fd::1", "2001:500:9f::42",
		"2001:dc3::35",
	}
	return netip.MustParseAddr(v4[i]), netip.MustParseAddr(v6[i])
}

func randomV4(rng *rand.Rand) netip.Addr {
	// 100-199.x.x.x: publicly routed space, kept only because the zone's
	// pinned digests depend on this draw. These glue addresses belong to
	// strangers' hosts and must never be dialled; a test that follows a
	// referral maps them to a local server or refuses them.
	return netip.AddrFrom4([4]byte{
		byte(100 + rng.Intn(100)), byte(rng.Intn(256)),
		byte(rng.Intn(256)), byte(1 + rng.Intn(254)),
	})
}

func randomV6(rng *rand.Rand) netip.Addr {
	var a [16]byte
	a[0], a[1] = 0x20, 0x01
	a[2], a[3] = 0x0d, 0xb8 // 2001:db8::/32
	for i := 4; i < 16; i++ {
		a[i] = byte(rng.Intn(256))
	}
	return netip.AddrFrom16(a)
}

// Package hints models the root hints a resolver ships with and the RFC 8109
// priming exchange built on them. Priming is load-bearing for the paper's
// RQ2: resolvers that prime on startup learn b.root's new address quickly,
// while resolvers running from stale hints keep querying the old address for
// years.
package hints

import (
	"fmt"
	"net/netip"
	"strings"

	"repro/internal/dnswire"
	"repro/internal/zone"
)

// Hint is one root server entry: host name plus its addresses.
type Hint struct {
	Host dnswire.Name
	V4   netip.Addr
	V6   netip.Addr
}

// File is a set of root hints.
type File struct {
	Hints []Hint
}

// Default returns hints matching the synthesized root zone's well-known
// addresses (post-renumbering b.root).
func Default() *File {
	f := &File{}
	for i, host := range zone.RootServerHosts() {
		v4, v6 := zone.WellKnownRootAddr(i)
		f.Hints = append(f.Hints, Hint{Host: host, V4: v4, V6: v6})
	}
	return f
}

// WithOldB returns a copy with b.root's pre-renumbering addresses — the
// stale hints file of a legacy resolver.
func (f *File) WithOldB(oldV4, oldV6 netip.Addr) *File {
	out := &File{Hints: append([]Hint(nil), f.Hints...)}
	for i := range out.Hints {
		if strings.HasPrefix(string(out.Hints[i].Host), "b.") {
			out.Hints[i].V4 = oldV4
			out.Hints[i].V6 = oldV6
		}
	}
	return out
}

// Addrs returns all hint addresses of one family in host order.
func (f *File) Addrs(v6 bool) []netip.Addr {
	out := make([]netip.Addr, 0, len(f.Hints))
	for _, h := range f.Hints {
		if v6 {
			out = append(out, h.V6)
		} else {
			out = append(out, h.V4)
		}
	}
	return out
}

// Lookup returns the hint for host, if present.
func (f *File) Lookup(host dnswire.Name) (Hint, bool) {
	hc := host.Canonical()
	for _, h := range f.Hints {
		if h.Host.Canonical() == hc {
			return h, true
		}
	}
	return Hint{}, false
}

// PrimingQuery builds the RFC 8109 priming query: "./IN/NS" with EDNS0.
func PrimingQuery(id uint16) *dnswire.Message {
	return dnswire.NewQuery(id, dnswire.Root, dnswire.TypeNS).WithEDNS(4096, false)
}

// CheckPrimingResponse validates a priming response per RFC 8109 §3: it
// must be an authoritative NOERROR answer for ./NS listing the root servers,
// with address records for at least some of them in the additional section.
// It returns the refreshed hints extracted from the response.
func CheckPrimingResponse(m *dnswire.Message) (*File, error) {
	if !m.Header.Response || m.Header.Rcode != dnswire.RcodeNoError {
		return nil, fmt.Errorf("hints: priming response rcode %s", m.Header.Rcode)
	}
	byHost := make(map[dnswire.Name]*Hint)
	var order []dnswire.Name
	for _, rr := range m.Answers {
		ns, ok := rr.Data.(dnswire.NSRecord)
		if !ok || !rr.Name.IsRoot() {
			continue
		}
		host := ns.Host.Canonical()
		if byHost[host] == nil {
			byHost[host] = &Hint{Host: host}
			order = append(order, host)
		}
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("hints: priming response has no ./NS answers")
	}
	withAddr := 0
	for _, rr := range m.Additional {
		h := byHost[rr.Name.Canonical()]
		if h == nil {
			continue
		}
		switch d := rr.Data.(type) {
		case dnswire.ARecord:
			if !h.V4.IsValid() {
				withAddr++
			}
			h.V4 = d.Addr
		case dnswire.AAAARecord:
			h.V6 = d.Addr
		}
	}
	if withAddr == 0 {
		return nil, fmt.Errorf("hints: priming response carries no glue")
	}
	f := &File{}
	for _, host := range order {
		f.Hints = append(f.Hints, *byHost[host])
	}
	return f, nil
}

package measure

import (
	"fmt"

	"repro/internal/anycast"
	"repro/internal/geo"
	"repro/internal/rss"
	"repro/internal/traceroute"
)

// probePlan is what a probe looks up instead of computing (DESIGN.md §7):
// for every (VP, target), everything about the probe that no tick changes.
// What is left to a tick is four draws — flap, alternate, loss, jitter — and
// whether the facility edge answers. Run builds it, from what Run reads
// (Cfg.Scale, World), on every call: tests and commands edit Cfg and Plan
// between NewCampaign and Run. Workers only read it.
type probePlan struct {
	targets []rss.ServiceAddr
	// entries is indexed vpIdx·len(targets)+tIdx. An entry is a function of
	// (catchment, AS), so VPs in one AS, and b.root's old and new addresses,
	// point at the same one.
	entries []*planEntry
}

// planEntry is what one AS chooses between in one catchment, and what a
// probe records of each choice; cands[i] belongs to choices.Routes.At(i).
type planEntry struct {
	choices anycast.Choices
	cands   []planCandidate
}

// planCandidate is what a ProbeEvent carries of one candidate route.
type planCandidate struct {
	siteID, identifier, facility string
	city                         geo.City
	kind                         anycast.SiteKind
	asPath                       []int   // the routing table's own slice
	originASN                    int     // with len(asPath), what the edge hop's draw is keyed by
	rtt                          float64 // rttFor(route, family)
	edge                         string  // traceroute.EdgeName(facility, family)
}

// buildPlan resolves the plan. A candidate route into a site its deployment
// does not have is an error naming the route, not a probe answered by a site
// named "".
func (c *Campaign) buildPlan() (*probePlan, error) {
	type entryKey struct {
		catch *anycast.Catchment
		asn   int
	}
	vps := c.World.Population.VPs
	targets := rss.AllServiceAddrs()
	plan := &probePlan{targets, make([]*planEntry, len(vps)*len(targets))}
	entries := make(map[entryKey]*planEntry)
	// One string per edge name: the dataset's dictionary then hashes the same
	// few hundred strings, not one per candidate.
	edges := make(map[string]string)
	// VP by VP, target by target — the order a tick walks the entries in, so
	// that is the order they are allocated in.
	for vpIdx := range vps {
		for tIdx, target := range targets {
			key := entryKey{c.World.Catchments[target.Letter][target.Family], vps[vpIdx].ASN}
			e := entries[key]
			if e == nil {
				var err error
				if e, err = c.planEntry(key.catch, target, key.asn, edges); err != nil {
					return nil, err
				}
				entries[key] = e
			}
			plan.entries[vpIdx*len(targets)+tIdx] = e
		}
	}
	return plan, nil
}

// planEntry resolves what asn chooses between in target's catchment.
func (c *Campaign) planEntry(catch *anycast.Catchment, target rss.ServiceAddr, asn int, edges map[string]string) (*planEntry, error) {
	e := &planEntry{choices: catch.Choices(asn, c.Cfg.Scale)}
	e.cands = make([]planCandidate, e.choices.Routes.Len())
	for i := range e.cands {
		route := e.choices.Routes.At(i)
		site, ok := c.World.System.Deployments[target.Letter].SiteByID(route.Origin.SiteID)
		if !ok {
			return nil, fmt.Errorf("measure: %s.root %s: AS%d has a route to site %q, which the deployment does not have",
				target.Letter, target.Family, asn, route.Origin.SiteID)
		}
		edge := traceroute.EdgeName(site.Facility, target.Family)
		if shared, ok := edges[edge]; ok {
			edge = shared
		} else {
			edges[edge] = edge
		}
		e.cands[i] = planCandidate{
			siteID: site.ID, identifier: site.Identifier, facility: site.Facility,
			city: site.City, kind: site.Kind,
			asPath: route.ASPath, originASN: route.Origin.ASN,
			rtt: rttFor(route, target.Family), edge: edge,
		}
	}
	return e, nil
}

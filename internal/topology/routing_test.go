package topology

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// insertReference is rib.insert as it was before it placed the route by
// hand: append, stable-sort the whole slice, cut it at the cap, then look for
// the survivor. It is the oracle TestRibInsertMatchesStableSort compares with.
func (r oracleRib) insertReference(asn int, route Route) bool {
	routes := r[asn]
	for _, hop := range route.ASPath[1:] {
		if hop == asn {
			return false
		}
	}
	for _, existing := range routes {
		if existing.Origin == route.Origin && len(existing.ASPath) == len(route.ASPath) &&
			existing.relType == route.relType {
			return false
		}
	}
	routes = append(routes, route)
	sort.SliceStable(routes, func(i, j int) bool { return better(routes[i], routes[j]) })
	if len(routes) > maxAlternates {
		routes = routes[:maxAlternates]
	}
	r[asn] = routes
	for _, kept := range r[asn] {
		if kept.Origin == route.Origin && kept.relType == route.relType &&
			len(kept.ASPath) == len(route.ASPath) {
			return true
		}
	}
	return false
}

// routesOf returns the routes slot o keeps, best first, nil when it keeps
// none.
func (r *rib) routesOf(o int) []Route {
	var out []Route
	for _, i := range r.slots[o] {
		out = append(out, r.log[i])
	}
	return out
}

// TestRibInsertMatchesStableSort: over seeded random route sets drawn from a
// domain small enough to collide — loops, duplicates, and routes that tie
// under better (they differ in Origin.Local only, which the duplicate check
// sees and the comparator does not) — placing each route in front of the
// first one it beats keeps exactly the slice, and reports exactly the
// survivals, that re-sorting the whole slice on every insert did.
func TestRibInsertMatchesStableSort(t *testing.T) {
	ties := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got := newRib(4)
		want := make(oracleRib)
		for i := 0; i < 60; i++ {
			asn := 1 + rng.Intn(3)
			path := []int{asn}
			for h := rng.Intn(3); h > 0; h-- {
				path = append(path, 1+rng.Intn(6))
			}
			route := Route{
				Origin:  Origin{SiteID: string(rune('a' + rng.Intn(2))), ASN: 100 + rng.Intn(2), Local: rng.Intn(3) == 0},
				ASPath:  path,
				PathKm:  float64(rng.Intn(3)) * 200,
				relType: localRel(rng.Intn(3)),
			}
			for _, kept := range got.routesOf(asn) {
				if kept.Origin != route.Origin && !better(kept, route) && !better(route, kept) {
					ties++
				}
			}
			_, g := got.insert(int32(asn), route)
			w := want.insertReference(asn, route)
			if g != w || !reflect.DeepEqual(got.routesOf(asn), want[asn]) {
				t.Fatalf("seed %d, insert %d into AS %d: survived %v, kept %+v\nthe stable sort: survived %v, kept %+v",
					seed, i, asn, g, got.routesOf(asn), w, want[asn])
			}
		}
	}
	if ties == 0 {
		t.Error("no insert met a route it ties with: the generator no longer covers ties")
	}
}

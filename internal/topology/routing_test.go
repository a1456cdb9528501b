package topology

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"unsafe"
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

// better is rib.better on Routes, comparing origins where rib.better
// compares their ranks: the comparator the oracles (insertReference and
// oracle_test.go's copyingInsert) order routes by.
func better(a, b Route) bool {
	ca, cb := routeClass(a.relType), routeClass(b.relType)
	if ca != cb {
		return ca < cb
	}
	if len(a.ASPath) != len(b.ASPath) {
		return len(a.ASPath) < len(b.ASPath)
	}
	if ba, bb := int(a.PathKm/geoTieToleranceKm), int(b.PathKm/geoTieToleranceKm); ba != bb {
		return ba < bb
	}
	if a.Origin.ASN != b.Origin.ASN {
		return a.Origin.ASN < b.Origin.ASN
	}
	if a.Origin.SiteID != b.Origin.SiteID {
		return a.Origin.SiteID < b.Origin.SiteID
	}
	if a.PathKm != b.PathKm {
		return a.PathKm < b.PathKm
	}
	for i := range a.ASPath {
		if i >= len(b.ASPath) {
			break
		}
		if a.ASPath[i] != b.ASPath[i] {
			return a.ASPath[i] < b.ASPath[i]
		}
	}
	return false
}

// routesOf returns the routes slot o keeps, best first, nil when it keeps
// none.
func (r *rib) routesOf(o int) []Route {
	var out []Route
	for _, i := range r.slots[o] {
		route := r.log[i]
		out = append(out, Route{Origin: r.origins[route.origin], ASPath: r.path(&route), PathKm: route.pathKm, relType: route.rel})
	}
	return out
}

// TestRibInsertMatchesStableSort: over seeded random route sets drawn from a
// domain small enough to collide — loops, duplicates, and routes that tie
// under better (they differ in Origin.Local only, which the duplicate check
// sees and the comparator does not) — placing each route in front of the
// first one it beats keeps exactly the slice, and reports exactly the
// survivals, that re-sorting the whole slice on every insert did. The rib
// compares records by origin rank over an origins table given every origin
// twice, the oracle compares Routes by origin: the two orders must agree.
func TestRibInsertMatchesStableSort(t *testing.T) {
	ties := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got := newRib(4)
		var domain []Origin // every origin the routes below can have, twice over
		for i := 0; i < 16; i++ {
			domain = append(domain, Origin{SiteID: string(rune('a' + i%2)), ASN: 100 + i/2%2, Local: i/4%2 == 1})
		}
		got.reset(domain)
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
			staged := got.stage(rec{pathKm: route.PathKm, origin: got.find(route.Origin), rel: route.relType}, path[0], path[1:])
			_, g := got.insert(int32(asn), staged)
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

// TestTableSlabsHoldNoPointer: a routing table's record and path slabs are
// slices of types the collector never scans — no pointer, string, slice, map
// or interface anywhere in them — and a record is at most 24 bytes.
func TestTableSlabsHoldNoPointer(t *testing.T) {
	if size := unsafe.Sizeof(rec{}); size > 24 {
		t.Errorf("rec is %d bytes, want at most 24", size)
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
			t.Errorf("%s is a %s, which the collector scans", path, typ.Kind())
		}
	}
	var rt RoutingTable
	walk("routes[]", reflect.TypeOf(rt.routes).Elem())
	walk("paths[]", reflect.TypeOf(rt.paths).Elem())
}

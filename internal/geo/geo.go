// Package geo provides the geographic substrate for the study: coordinates,
// great-circle distances, continental regions, a catalog of metro areas with
// IATA-style codes (the naming scheme several root operators use in their
// instance identifiers), and the distance→latency model the paper relies on
// ("every 1,000 km induces ~10 ms of delay" round trip in fiber).
package geo

import (
	"fmt"
	"math"
)

// Region is a continental region, matching the paper's per-region tables.
type Region int

// Regions in the order the paper's Table 3 and Table 4 report them.
const (
	Africa Region = iota
	Asia
	Europe
	NorthAmerica
	SouthAmerica
	Oceania
)

// RegionCount is the number of regions, and the length of a table indexed by
// Region.
const RegionCount = int(Oceania) + 1

// Regions lists all regions in canonical report order.
func Regions() []Region {
	return []Region{Africa, Asia, Europe, NorthAmerica, SouthAmerica, Oceania}
}

// String returns the region's report name.
func (r Region) String() string {
	switch r {
	case Africa:
		return "Africa"
	case Asia:
		return "Asia"
	case Europe:
		return "Europe"
	case NorthAmerica:
		return "North America"
	case SouthAmerica:
		return "South America"
	case Oceania:
		return "Oceania"
	}
	return fmt.Sprintf("Region(%d)", int(r))
}

// Point is a location on the globe.
type Point struct {
	Lat, Lon float64 // degrees
}

// earthRadiusKm is the mean Earth radius.
const earthRadiusKm = 6371.0

// DistanceKm returns the great-circle (haversine) distance between a and b.
func DistanceKm(a, b Point) float64 {
	const deg = math.Pi / 180
	dLat := (b.Lat - a.Lat) * deg
	dLon := (b.Lon - a.Lon) * deg
	la, lb := a.Lat*deg, b.Lat*deg
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(la)*math.Cos(lb)*math.Sin(dLon/2)*math.Sin(dLon/2)
	if h > 1 {
		h = 1
	}
	return 2 * earthRadiusKm * math.Asin(math.Sqrt(h))
}

// RTTms estimates the round-trip time in milliseconds for a path covering
// pathKm kilometres of fiber: light in fiber travels at roughly 2/3 c, and
// fiber routes exceed great-circle distance, which together yield the
// paper's ~10 ms of RTT per 1,000 km. perHopMs adds queueing/processing
// delay per router hop.
func RTTms(pathKm float64, hops int, perHopMs float64) float64 {
	return pathKm*0.01 + float64(hops)*perHopMs
}

// City is a metro area usable as a site or vantage-point location.
type City struct {
	IATA   string // airport/metro code, e.g. "FRA"
	Name   string
	Region Region
	Point  Point
}

// cities is the metro catalog. Coordinates are approximate city centers.
var cities = []City{
	// Europe
	{"FRA", "Frankfurt", Europe, Point{50.1, 8.7}},
	{"AMS", "Amsterdam", Europe, Point{52.4, 4.9}},
	{"LHR", "London", Europe, Point{51.5, -0.1}},
	{"CDG", "Paris", Europe, Point{48.9, 2.4}},
	{"MAD", "Madrid", Europe, Point{40.4, -3.7}},
	{"MXP", "Milan", Europe, Point{45.5, 9.2}},
	{"VIE", "Vienna", Europe, Point{48.2, 16.4}},
	{"WAW", "Warsaw", Europe, Point{52.2, 21.0}},
	{"ARN", "Stockholm", Europe, Point{59.3, 18.1}},
	{"OSL", "Oslo", Europe, Point{59.9, 10.8}},
	{"HEL", "Helsinki", Europe, Point{60.2, 24.9}},
	{"CPH", "Copenhagen", Europe, Point{55.7, 12.6}},
	{"ZRH", "Zurich", Europe, Point{47.4, 8.5}},
	{"PRG", "Prague", Europe, Point{50.1, 14.4}},
	{"BUD", "Budapest", Europe, Point{47.5, 19.0}},
	{"ATH", "Athens", Europe, Point{38.0, 23.7}},
	{"LIS", "Lisbon", Europe, Point{38.7, -9.1}},
	{"DUB", "Dublin", Europe, Point{53.3, -6.3}},
	{"BRU", "Brussels", Europe, Point{50.8, 4.4}},
	{"KBP", "Kyiv", Europe, Point{50.5, 30.5}},
	{"IST", "Istanbul", Europe, Point{41.0, 28.9}},
	{"LED", "St Petersburg", Europe, Point{59.9, 30.3}},
	{"SVO", "Moscow", Europe, Point{55.8, 37.6}},
	{"BTS", "Bratislava", Europe, Point{48.1, 17.1}},
	{"LJU", "Ljubljana", Europe, Point{46.1, 14.5}},
	{"BEG", "Belgrade", Europe, Point{44.8, 20.5}},
	{"OTP", "Bucharest", Europe, Point{44.4, 26.1}},
	{"SOF", "Sofia", Europe, Point{42.7, 23.3}},
	{"RIX", "Riga", Europe, Point{56.9, 24.1}},
	{"TLL", "Tallinn", Europe, Point{59.4, 24.8}},
	// North America
	{"IAD", "Washington DC", NorthAmerica, Point{38.9, -77.0}},
	{"JFK", "New York", NorthAmerica, Point{40.7, -74.0}},
	{"ORD", "Chicago", NorthAmerica, Point{41.9, -87.6}},
	{"DFW", "Dallas", NorthAmerica, Point{32.8, -96.8}},
	{"MIA", "Miami", NorthAmerica, Point{25.8, -80.2}},
	{"ATL", "Atlanta", NorthAmerica, Point{33.7, -84.4}},
	{"LAX", "Los Angeles", NorthAmerica, Point{34.1, -118.2}},
	{"SJC", "San Jose", NorthAmerica, Point{37.3, -121.9}},
	{"SEA", "Seattle", NorthAmerica, Point{47.6, -122.3}},
	{"DEN", "Denver", NorthAmerica, Point{39.7, -105.0}},
	{"YYZ", "Toronto", NorthAmerica, Point{43.7, -79.4}},
	{"YVR", "Vancouver", NorthAmerica, Point{49.3, -123.1}},
	{"YUL", "Montreal", NorthAmerica, Point{45.5, -73.6}},
	{"MEX", "Mexico City", NorthAmerica, Point{19.4, -99.1}},
	{"PHX", "Phoenix", NorthAmerica, Point{33.4, -112.1}},
	{"MSP", "Minneapolis", NorthAmerica, Point{45.0, -93.3}},
	{"BOS", "Boston", NorthAmerica, Point{42.4, -71.1}},
	{"PAO", "Palo Alto", NorthAmerica, Point{37.4, -122.1}},
	// Asia
	{"NRT", "Tokyo", Asia, Point{35.7, 139.7}},
	{"KIX", "Osaka", Asia, Point{34.7, 135.5}},
	{"ICN", "Seoul", Asia, Point{37.6, 127.0}},
	{"PEK", "Beijing", Asia, Point{39.9, 116.4}},
	{"PVG", "Shanghai", Asia, Point{31.2, 121.5}},
	{"HKG", "Hong Kong", Asia, Point{22.3, 114.2}},
	{"TPE", "Taipei", Asia, Point{25.0, 121.6}},
	{"SIN", "Singapore", Asia, Point{1.4, 103.8}},
	{"KUL", "Kuala Lumpur", Asia, Point{3.1, 101.7}},
	{"BKK", "Bangkok", Asia, Point{13.8, 100.5}},
	{"CGK", "Jakarta", Asia, Point{-6.2, 106.8}},
	{"MNL", "Manila", Asia, Point{14.6, 121.0}},
	{"BOM", "Mumbai", Asia, Point{19.1, 72.9}},
	{"DEL", "Delhi", Asia, Point{28.6, 77.2}},
	{"MAA", "Chennai", Asia, Point{13.1, 80.3}},
	{"DXB", "Dubai", Asia, Point{25.3, 55.3}},
	{"TLV", "Tel Aviv", Asia, Point{32.1, 34.8}},
	{"KHI", "Karachi", Asia, Point{24.9, 67.0}},
	{"DAC", "Dhaka", Asia, Point{23.8, 90.4}},
	{"HAN", "Hanoi", Asia, Point{21.0, 105.9}},
	// South America
	{"GRU", "Sao Paulo", SouthAmerica, Point{-23.6, -46.7}},
	{"GIG", "Rio de Janeiro", SouthAmerica, Point{-22.9, -43.2}},
	{"EZE", "Buenos Aires", SouthAmerica, Point{-34.6, -58.4}},
	{"SCL", "Santiago", SouthAmerica, Point{-33.5, -70.7}},
	{"BOG", "Bogota", SouthAmerica, Point{4.7, -74.1}},
	{"LIM", "Lima", SouthAmerica, Point{-12.0, -77.0}},
	{"UIO", "Quito", SouthAmerica, Point{-0.2, -78.5}},
	{"CCS", "Caracas", SouthAmerica, Point{10.5, -66.9}},
	{"MVD", "Montevideo", SouthAmerica, Point{-34.9, -56.2}},
	{"ASU", "Asuncion", SouthAmerica, Point{-25.3, -57.6}},
	// Africa
	{"JNB", "Johannesburg", Africa, Point{-26.2, 28.0}},
	{"CPT", "Cape Town", Africa, Point{-33.9, 18.4}},
	{"NBO", "Nairobi", Africa, Point{-1.3, 36.8}},
	{"LOS", "Lagos", Africa, Point{6.5, 3.4}},
	{"CAI", "Cairo", Africa, Point{30.0, 31.2}},
	{"CMN", "Casablanca", Africa, Point{33.6, -7.6}},
	{"DAR", "Dar es Salaam", Africa, Point{-6.8, 39.3}},
	{"ACC", "Accra", Africa, Point{5.6, -0.2}},
	{"TNR", "Antananarivo", Africa, Point{-18.9, 47.5}},
	{"DKR", "Dakar", Africa, Point{14.7, -17.5}},
	// Oceania
	{"SYD", "Sydney", Oceania, Point{-33.9, 151.2}},
	{"MEL", "Melbourne", Oceania, Point{-37.8, 145.0}},
	{"BNE", "Brisbane", Oceania, Point{-27.5, 153.0}},
	{"PER", "Perth", Oceania, Point{-32.0, 115.9}},
	{"AKL", "Auckland", Oceania, Point{-36.8, 174.8}},
	{"WLG", "Wellington", Oceania, Point{-41.3, 174.8}},
	{"NAN", "Nadi", Oceania, Point{-17.8, 177.4}},
	{"GUM", "Guam", Oceania, Point{13.5, 144.8}},
}

var cityByIATA = func() map[string]City {
	m := make(map[string]City, len(cities))
	for _, c := range cities {
		m[c.IATA] = c
	}
	return m
}()

// Cities returns the full metro catalog.
func Cities() []City { return cities }

// CitiesIn returns the metros of one region.
func CitiesIn(r Region) []City {
	var out []City
	for _, c := range cities {
		if c.Region == r {
			out = append(out, c)
		}
	}
	return out
}

// CityByIATA looks a metro up by code.
func CityByIATA(code string) (City, bool) {
	c, ok := cityByIATA[code]
	return c, ok
}

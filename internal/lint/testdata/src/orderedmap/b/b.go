// Package b holds the orderedmap analyzer's passing cases: the sorted-keys
// fix, order-insensitive aggregation, ordered (slice) iteration, and a
// reasoned allow. No reports here.
package b

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
)

// The canonical fix: extract and sort the keys, then emit in sorted order.
func dumpSorted(w io.Writer, counts map[string]int) {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s %d\n", k, counts[k])
	}
}

// Aggregation inside a map range is order-insensitive and fine.
func total(counts map[string]int) int {
	sum := 0
	for _, n := range counts {
		sum += n
	}
	return sum
}

// Slice iteration is deterministic; writes inside it are fine.
func dumpSlice(w io.Writer, rows []string) {
	for _, r := range rows {
		io.WriteString(w, r)
	}
}

// A genuinely order-insensitive sink gets a reasoned allow on the range.
func debugDump(w io.Writer, counts map[string]int) {
	//rootlint:allow maporder: debug-only output, never hashed or persisted
	for k, n := range counts {
		fmt.Fprintf(w, "%s=%d ", k, n)
	}
}

type counter struct{ n int }

func (c *counter) add(v int) { c.n += v }

// Methods on values that hold no generator are not draws, and drawing over
// sorted keys is the fix.
func placeSorted(c *counter, rng *rand.Rand, perRegion map[string]int) {
	keys := make([]string, 0, len(perRegion))
	for k, n := range perRegion {
		c.add(n)
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for range keys {
		c.add(rng.Intn(10))
	}
}

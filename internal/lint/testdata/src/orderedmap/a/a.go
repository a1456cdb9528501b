// Package a holds the orderedmap analyzer's failing cases: map ranges whose
// bodies write into order-sensitive sinks.
package a

import (
	"fmt"
	"hash"
	"io"
	"math/rand"
	"strings"
)

func dumpDirect(w io.Writer, counts map[string]int) {
	for name, n := range counts {
		fmt.Fprintf(w, "%s %d\n", name, n) // want "fmt.Fprintf writes inside a map range"
	}
}

func digest(h hash.Hash, m map[string][]byte) {
	for _, v := range m {
		h.Write(v) // want "method Write writes inside a map range"
	}
}

func render(m map[string]string) string {
	var sb strings.Builder
	for k := range m {
		sb.WriteString(k) // want "method WriteString writes inside a map range"
	}
	return sb.String()
}

func copyOut(w io.Writer, m map[string]string) {
	for _, v := range m {
		io.WriteString(w, v) // want "io.WriteString writes inside a map range"
	}
}

// A draw from a seeded generator is order-sensitive too: which key gets which
// number depends on the iteration order.
func jitter(rng *rand.Rand, m map[string]float64) {
	for k := range m {
		m[k] += rng.Float64() // want "method Float64 draws from a seeded generator inside a map range"
	}
}

type builder struct {
	name string
	rng  *rand.Rand
}

func (b *builder) place(n int) []int { return b.rng.Perm(n) }

func placeAll(b *builder, perRegion map[string]int) (out [][]int) {
	for _, n := range perRegion {
		out = append(out, b.place(n)) // want "method place draws from a seeded generator inside a map range"
	}
	return out
}

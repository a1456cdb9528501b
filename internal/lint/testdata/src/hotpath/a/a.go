// Package a holds the hotpath analyzer's failing cases: allocation-prone
// constructs inside functions marked //rootlint:hotpath.
package a

import (
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
)

//rootlint:hotpath
func describe(kind string, n int) string {
	return fmt.Sprintf("%s/%d", kind, n) // want "fmt.Sprintf allocates on every call"
}

//rootlint:hotpath
func fail(n int) error {
	return fmt.Errorf("bad frame %d", n) // want "fmt.Errorf allocates on every call"
}

//rootlint:hotpath
func join(parts []string) string {
	var out string
	for _, p := range parts {
		out += p // want "string concatenation in a loop"
	}
	return out
}

//rootlint:hotpath
func joinBinary(parts []string) string {
	out := ""
	for _, p := range parts {
		out = out + p // want "string concatenation in a loop"
	}
	return out
}

//rootlint:hotpath
func escape(n int) func() int {
	return func() int { return n } // want "closure captures enclosing variables and escapes"
}

//rootlint:hotpath
func freshMake(b byte) []byte {
	return append(make([]byte, 0, 4), b) // want "append onto make"
}

//rootlint:hotpath
func freshLit(b byte) []byte {
	return append([]byte{}, b) // want "append onto a slice literal"
}

//rootlint:hotpath
func freshConv(s string, b byte) []byte {
	return append([]byte(s), b) // want "append onto a slice conversion"
}

// A cold path inside a hot function is suppressed with a reasoned allow.
//
//rootlint:hotpath
func frame(n int) error {
	if n > 0xffff {
		//rootlint:allow hotpath: cold error path, fires at most once per malformed zone
		return fmt.Errorf("frame %d exceeds 64 KiB", n)
	}
	return nil
}

// cursor mirrors the lazy wire-view idiom (PR 7): pointer-receiver methods
// that advance an offset through a shared byte slice. The directive must
// bind to methods exactly as it does to functions — these are the annotation
// sites the dnswire view cursor added.
type cursor struct {
	msg []byte
	off int
}

//rootlint:hotpath
func (c *cursor) fail() error {
	return fmt.Errorf("truncated at %d", c.off) // want "fmt.Errorf allocates on every call"
}

//rootlint:hotpath
func (c *cursor) names() string {
	var all string
	for c.off < len(c.msg) {
		all += string(c.msg[c.off]) // want "string concatenation in a loop"
		c.off++
	}
	return all
}

//rootlint:hotpath
func (c cursor) owner() []byte {
	return append(make([]byte, 0, 64), c.msg[c.off:]...) // want "append onto make"
}

//rootlint:hotpath
func (c *cursor) each() func() byte {
	return func() byte { // want "closure captures enclosing variables and escapes"
		b := c.msg[c.off]
		c.off++
		return b
	}
}

// bufSource is the interface-dispatch case: a slice fetched through an
// interface method is an unknown implementation's allocation.
type bufSource interface {
	Bytes() []byte
}

//rootlint:hotpath
func (c *cursor) boundAdvance() func() error {
	return c.fail // want "method value c.fail allocates a bound-method closure per evaluation"
}

//rootlint:hotpath
func gatherVia(src bufSource, tail []byte) []byte {
	return append(src.Bytes(), tail...) // want "append onto a slice returned through an interface method allocates a fresh backing array per call"
}

// A generator built per call: the whole state is seeded to draw one number.
//
//rootlint:hotpath
func flaps(seed int64, p float64) bool {
	rng := rand.New(rand.NewSource(seed)) // want "rand.New allocates and seeds a generator" "rand.NewSource allocates and seeds a generator"
	return rng.Float64() < p
}

//rootlint:hotpath
func flapsV2(seed uint64, p float64) bool {
	pcg := randv2.New(randv2.NewPCG(seed, 0))         // want "rand.New allocates and seeds" "rand.NewPCG allocates and seeds"
	cha := randv2.New(randv2.NewChaCha8([32]byte{1})) // want "rand.New allocates and seeds" "rand.NewChaCha8 allocates and seeds"
	return pcg.Float64() < p && cha.Float64() < p
}

// A table built per call to hold a handful of entries, then hashed into.
//
//rootlint:hotpath
func distinct(hops []string) int {
	seen := make(map[string]bool) // want "make\(map\) allocates a hash table per call"
	for _, h := range hops {
		seen[h] = true
	}
	return len(seen)
}

type hopSet map[string]bool

//rootlint:hotpath
func distinctNamed(hops []string) int {
	seen := make(hopSet, len(hops)) // want "make\(map\) allocates a hash table per call"
	for _, h := range hops {
		seen[h] = true
	}
	return len(seen)
}

//rootlint:hotpath
func carrierOf(asn int) string {
	return map[int]string{6939: "open-v6", 12956: "carrier-v4"}[asn] // want "map literal allocates a hash table per call"
}

//rootlint:hotpath
func emptySet() hopSet {
	return hopSet{} // want "map literal allocates a hash table per call"
}

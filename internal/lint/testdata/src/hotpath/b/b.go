// Package b holds the hotpath analyzer's passing cases: idioms that look
// close to the flagged constructs but allocate nothing per call, and
// undirected functions the analyzer must ignore entirely. No reports here.
package b

import (
	"fmt"
	"math/rand"
)

// No //rootlint:hotpath directive: fmt.Sprintf is fine in ordinary code.
func describe(kind string, n int) string {
	return fmt.Sprintf("%s/%d", kind, n)
}

//rootlint:hotpath
func sum(buf []byte) int {
	total := 0
	for _, c := range buf {
		total += int(c) // integer +=, not string concatenation
	}
	return total
}

//rootlint:hotpath
func appendInto(dst, src []byte) []byte {
	return append(dst, src...) // caller-provided base: amortized, not fresh
}

//rootlint:hotpath
func immediate(n int) int {
	return func() int { return n * 2 }() // immediately invoked: does not escape
}

//rootlint:hotpath
func constant() func() int {
	return func() int { return 42 } // captures nothing: free to escape
}

//rootlint:hotpath
func concatOnce(a, b string) string {
	return a + b // concatenation outside any loop is a single allocation
}

// byteSource mirrors the failing fixture's interface; the near-misses below
// must stay silent.
type byteSource interface {
	Bytes() []byte
}

type pool struct{ buf []byte }

func (p *pool) Bytes() []byte { return p.buf }

func (p *pool) grow(n int) {}

//rootlint:hotpath
func directDispatch(src byteSource) int {
	// Calling through the interface is dispatch, not a method value.
	return len(src.Bytes())
}

//rootlint:hotpath
func concreteAppend(p *pool, tail []byte) []byte {
	// A concrete receiver's method result is the implementation's own
	// (inlinable, provably reused) buffer — not flagged.
	return append(p.Bytes(), tail...)
}

//rootlint:hotpath
func directCall(p *pool) {
	// x.M() used as a call is never a bound-method closure.
	p.grow(1)
}

func coldBinding(p *pool) func(int) {
	// Method values outside a hot function are fine.
	return p.grow
}

// Building a generator once, off the hot path, is world construction.
func newRng(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

//rootlint:hotpath
func drawFrom(rng *rand.Rand, p float64) bool {
	return rng.Float64() < p // drawing from a generator someone else owns seeds nothing
}

// A table someone else built is only read and written here, and a dense key
// space is a slice: neither builds a hash table per call.
//
//rootlint:hotpath
func countInto(seen map[string]int, byVP []int, hop string, vp int) {
	seen[hop]++
	byVP[vp]++
}

//rootlint:hotpath
func distinct(scratch, hops []string) []string {
	scratch = scratch[:0] // a handful of entries: a reused slice, searched linearly
outer:
	for _, h := range hops {
		for _, s := range scratch {
			if s == h {
				continue outer
			}
		}
		scratch = append(scratch, h)
	}
	return scratch
}

// A first sight that builds its table once is a reasoned allow.
//
//rootlint:hotpath
func firstSight(sets map[string]map[string]bool, letter, id string) {
	set := sets[letter]
	if set == nil {
		//rootlint:allow hotpath: once per letter, thirteen times a run
		set = make(map[string]bool)
		sets[letter] = set
	}
	set[id] = true
}

// Building a table off the hot path is construction.
func newSets() map[string]map[string]bool {
	return make(map[string]map[string]bool)
}

//go:build linux

package main

import (
	"bytes"
	"fmt"

	"repro/internal/blast"
	"repro/internal/qlog"
)

// serveTLDs is the zone size rootserve is started with; the corpus draws its
// existing names from the same delegation set.
const serveTLDs = 120

// hotCorpusSize is the number of repeating queries in the serve_hot corpus:
// about 6.7k cache keys, which fit rootserve's 8 MiB cache with no eviction.
const hotCorpusSize = 8192

const (
	rcodeNoError  = 0
	rcodeNXDomain = 3
)

// corpus is a query set as the generator sees it: the packed wires (message
// ID zero), where each question section ends, the rcode a correct server
// gives, and — once a priming pass has run — the full answer to each query
// with its ID zeroed.
type corpus struct {
	wires   [][]byte
	qEnd    []int
	rcode   []byte
	answers [][]byte
}

func (c *corpus) len() int { return len(c.wires) }

// junkLabel is how blast names a nonexistent TLD.
var junkLabel = []byte("junk-")

func newCorpus(mix blast.Mix, size int, seed uint64) (*corpus, error) {
	bc, err := blast.BuildCorpus(mix, serveTLDs, size, seed)
	if err != nil {
		return nil, err
	}
	c := &corpus{
		wires:   make([][]byte, size),
		qEnd:    make([]int, size),
		rcode:   make([]byte, size),
		answers: make([][]byte, size),
	}
	for i := 0; i < size; i++ {
		w := bc.Wire(i)
		end := qlog.QuestionEnd(w)
		if end < 0 {
			return nil, fmt.Errorf("corpus query %d has no well-formed question", i)
		}
		c.wires[i], c.qEnd[i] = w, end
		// w[12] is the first label's length; the junk marker follows it.
		if bytes.HasPrefix(w[13:], junkLabel) {
			c.rcode[i] = rcodeNXDomain
		} else {
			c.rcode[i] = rcodeNoError
		}
	}
	return c, nil
}

// hotCorpus is the B-Root composition over a small repeating query set.
func hotCorpus(size int, seed uint64) (*corpus, error) {
	return newCorpus(blast.DefaultMix(), size, seed)
}

// junkMix is the B-Root junk share in pure form: every query is an A or
// AAAA for a TLD that does not exist.
func junkMix() blast.Mix {
	m := blast.DefaultMix()
	m.Junk = 1
	m.NS, m.DS, m.DNSKEY, m.SOA = 0, 0, 0, 0
	return m
}

// junkCorpus holds size queries none of which repeats a name, so none can be
// answered from rootserve's qname-keyed cache.
func junkCorpus(size int, seed uint64) (*corpus, error) {
	c, err := newCorpus(junkMix(), size, seed)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, size)
	for i, w := range c.wires {
		name := string(w[12 : c.qEnd[i]-4])
		if seen[name] {
			return nil, fmt.Errorf("junk corpus repeats a name at query %d", i)
		}
		seen[name] = true
	}
	return c, nil
}

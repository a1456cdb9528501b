package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"repro/internal/cli"
	"repro/internal/qlog"
)

// runQlog implements the -qlog flight-log mode:
//
//	rootanalyze [-filter kind=...,class=...,rcode=...] -qlog show flight.qlog
//	rootanalyze [-filter ...] -qlog compose flight.qlog
//	rootanalyze -qlog diff a.qlog b.qlog
//	rootanalyze -qlog join server.qlog client.qlog
//
// show prints events one per line; compose prints B-Root-style composition
// tables; diff compares two logs in canonical order and reports the first
// diverging event (exit 0 identical, 1 different); join pairs client-side
// events against server-side events by key and checks the loss accounting
// balances (exit 0 balanced, 1 not). Exit 2 is a bad command line or, as
// with cmp, a log that cannot be read.
func runQlog(fs *flag.FlagSet, stdout io.Writer, flt qlogFilter) int {
	verb, files := fs.Arg(0), fs.Args()
	if len(files) > 0 {
		files = files[1:]
	}
	want := map[string]int{"show": 1, "compose": 1, "diff": 2, "join": 2}[verb]
	switch {
	case want == 0:
		return cli.Usage(fs, "unknown -qlog verb %q (want show, compose, diff, join)", verb)
	case len(files) != want:
		return cli.Usage(fs, "-qlog %s wants %d flight-log file(s)", verb, want)
	}
	var logs [2][]qlog.Event
	for i, path := range files {
		var ok bool
		if logs[i], ok = loadQlog(fs, path); !ok {
			return cli.ExitUsage
		}
	}
	switch verb {
	case "show":
		return qlogShow(stdout, flt.apply(logs[0]))
	case "compose":
		return qlogCompose(stdout, flt.apply(logs[0]))
	case "diff":
		return qlogDiff(stdout, files, logs[0], logs[1])
	}
	return qlogJoin(stdout, logs[0], logs[1])
}

// loadQlog decodes one flight log, warning (not failing) on a torn tail —
// same stance as the dataset replayer. A log it cannot decode it reports.
func loadQlog(fs *flag.FlagSet, path string) ([]qlog.Event, bool) {
	f, err := os.Open(path)
	if err != nil {
		cli.Usage(fs, "%v", err)
		return nil, false
	}
	defer f.Close()
	r, err := qlog.NewReader(f)
	var evs []qlog.Event
	if err == nil {
		evs, err = r.Events()
	}
	if err != nil {
		cli.Usage(fs, "%s: %v", path, err)
		return nil, false
	}
	if r.Torn() {
		fmt.Fprintf(fs.Output(), "rootanalyze: warning: %s has a torn trailing block (%v); "+
			"decoded the sealed prefix only\n", path, r.TornReason())
	}
	return evs, true
}

// qlogFilter is the -filter flag.Value: it selects events by kind name, class
// enum name, and rcode value. Unset fields match everything.
type qlogFilter struct {
	kind  string
	class string
	rcode *uint64
}

func (f *qlogFilter) String() string { return "" }

func (f *qlogFilter) Set(s string) error {
	*f = qlogFilter{}
	return cli.Walk(s, func(k, v string) error {
		switch k {
		case "kind":
			f.kind = v
		case "class":
			f.class = v
		case "rcode":
			n, err := strconv.ParseUint(v, 10, 64)
			f.rcode = &n
			return err
		default:
			return cli.Unknown(k, "kind, class, rcode")
		}
		return nil
	})
}

func (f qlogFilter) apply(evs []qlog.Event) []qlog.Event {
	out := evs[:0]
	for _, e := range evs {
		d := e.Def()
		if f.kind != "" && d.Kind != f.kind {
			continue
		}
		if f.class != "" && !fieldHasEnumValue(e, "class", f.class) {
			continue
		}
		if f.rcode != nil && !fieldHasNumValue(e, "rcode", *f.rcode) {
			continue
		}
		out = append(out, e)
	}
	return out
}

// fieldHasEnumValue reports whether the event's schema has the named field
// and its value renders as the given enum name.
func fieldHasEnumValue(e qlog.Event, field, want string) bool {
	for i, fd := range e.Def().Fields {
		if fd.Name != field {
			continue
		}
		v := e.Vals[i]
		return int(v) < len(fd.Enum) && fd.Enum[v] == want
	}
	return false
}

func fieldHasNumValue(e qlog.Event, field string, want uint64) bool {
	for i, fd := range e.Def().Fields {
		if fd.Name == field {
			return e.Vals[i] == want
		}
	}
	return false
}

// qlogShow prints events in canonical order, one per line.
func qlogShow(w io.Writer, evs []qlog.Event) int {
	qlog.SortCanonical(evs)
	for _, e := range evs {
		fmt.Fprintln(w, e.String())
	}
	fmt.Fprintf(w, "%d events\n", len(evs))
	return 0
}

// composeMaxDistinct bounds which numeric fields get a composition table: a
// field with more observed values than this is a measurement (latency, flow
// key), not a composition dimension, and is skipped.
const composeMaxDistinct = 8

// qlogCompose prints per-kind composition tables in the style of the B-Root
// query-composition study: for every field that behaves like a category
// (declared enum, or few distinct observed values), the share of events per
// value.
func qlogCompose(w io.Writer, evs []qlog.Event) int {
	total := len(evs)
	fmt.Fprintf(w, "%d events\n", total)
	for kind := range qlog.Registry {
		d := &qlog.Registry[kind]
		var kindEvs []qlog.Event
		for _, e := range evs {
			if e.Kind == kind {
				kindEvs = append(kindEvs, e)
			}
		}
		if len(kindEvs) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%s: %d events\n", d.Kind, len(kindEvs))
		for fi, fd := range d.Fields {
			counts := make(map[uint64]int)
			for _, e := range kindEvs {
				counts[e.Vals[fi]]++
			}
			if len(fd.Enum) == 0 && len(counts) > composeMaxDistinct {
				continue // a measurement, not a composition dimension
			}
			vals := make([]uint64, 0, len(counts))
			for v := range counts {
				vals = append(vals, v)
			}
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			for _, v := range vals {
				label := strconv.FormatUint(v, 10)
				if int(v) < len(fd.Enum) {
					label = fd.Enum[v]
				}
				n := counts[v]
				fmt.Fprintf(w, "  %-10s %-10s %6d  %5.1f%%\n",
					fd.Name, label, n, 100*float64(n)/float64(len(kindEvs)))
			}
		}
	}
	return 0
}

// qlogDiff compares two flight logs in canonical order: the logical event
// streams must carry identical content, whatever append order shard
// scheduling produced. Prints the first diverging event when they differ.
func qlogDiff(w io.Writer, paths []string, a, b []qlog.Event) int {
	qlog.SortCanonical(a)
	qlog.SortCanonical(b)
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if qlog.Compare(a[i], b[i]) != 0 {
			fmt.Fprintf(w, "flight logs differ: first divergence at event %d\n  a: %s\n  b: %s\n",
				i, a[i], b[i])
			return 1
		}
	}
	if len(a) != len(b) {
		longer, path := a, paths[0]
		if len(b) > len(a) {
			longer, path = b, paths[1]
		}
		fmt.Fprintf(w, "flight logs differ: %s has %d extra events, first extra:\n  %s\n",
			path, len(longer)-n, longer[n])
		return 1
	}
	fmt.Fprintf(w, "flight logs identical: %d events\n", n)
	return 0
}

// serverServed reports whether a server-side event shows a response leaving
// the egress funnel (fate ok, verdict none/send/slip).
func serverServed(e qlog.Event) bool {
	return e.Val("fate") == 0 && e.Val("verdict") != 2
}

// qlogJoin pairs every client-side event with the server-side events for the
// same key (both sides hash the identical query prefix, and equal samplers
// select the same queries) and checks the accounting balances: every sampled
// query the client sent is either matched to a served response or accounted
// lost with a server-side explanation.
func qlogJoin(w io.Writer, sevs, cevs []qlog.Event) int {
	server := make(map[uint64][]qlog.Event)
	for _, e := range sevs {
		if e.Def().Kind == "serve/query" {
			server[e.Key] = append(server[e.Key], e)
		}
	}
	var sent, matched, lost, unmatched int
	lostWhy := map[string]int{}
	attempts := map[uint64]int{}
	var waitUs uint64
	qlog.SortCanonical(cevs)
	for _, e := range cevs {
		if e.Def().Kind != "blast/query" {
			continue
		}
		sent++
		attempts[e.Val("attempts")]++
		waitUs += e.Val("wait_us")
		if e.Val("outcome") == 1 { // lost
			lost++
			lostWhy[explainLoss(server[e.Key])]++
			continue
		}
		served := false
		for _, se := range server[e.Key] {
			if serverServed(se) {
				served = true
				break
			}
		}
		if served {
			matched++
		} else {
			unmatched++
		}
	}
	fmt.Fprintf(w, "join: client=%d server=%d sent=%d matched=%d lost=%d unmatched=%d\n",
		len(cevs), len(sevs), sent, matched, lost, unmatched)
	for _, why := range []string{"egress-lost", "rrl-drop", "ingress-drop", "no-server-event"} {
		if n := lostWhy[why]; n > 0 {
			fmt.Fprintf(w, "  lost by server outcome: %-15s %d\n", why, n)
		}
	}
	keys := make([]uint64, 0, len(attempts))
	for a := range attempts {
		keys = append(keys, a)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, a := range keys {
		fmt.Fprintf(w, "  attempts=%d: %d\n", a, attempts[a])
	}
	fmt.Fprintf(w, "  backoff waited: %dus total\n", waitUs)
	if sent == matched+lost {
		fmt.Fprintln(w, "balance: sent == matched + lost")
		return 0
	}
	fmt.Fprintf(w, "balance BROKEN: sent=%d != matched=%d + lost=%d (%d ok-but-unmatched)\n",
		sent, matched, lost, unmatched)
	return 1
}

// explainLoss characterizes the server's view of a query the client declared
// lost: the server answered and the reply vanished (egress-lost), RRL
// suppressed it, the link dropped it on ingress, or the server never saw it.
func explainLoss(sevs []qlog.Event) string {
	if len(sevs) == 0 {
		return "no-server-event"
	}
	sawDrop := false
	for _, e := range sevs {
		switch {
		case serverServed(e):
			return "egress-lost"
		case e.Val("verdict") == 2:
			sawDrop = true
		}
	}
	if sawDrop {
		return "rrl-drop"
	}
	return "ingress-drop"
}

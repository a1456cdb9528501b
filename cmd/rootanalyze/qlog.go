package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/qlog"
)

// runQlog implements the -qlog flight-log mode:
//
//	rootanalyze -qlog show [-filter kind=...,class=...,rcode=...] flight.qlog
//	rootanalyze -qlog compose [-filter ...] flight.qlog
//	rootanalyze -qlog diff a.qlog b.qlog
//	rootanalyze -qlog join server.qlog client.qlog
//
// show prints events one per line; compose prints B-Root-style composition
// tables; diff compares two logs in canonical order and reports the first
// diverging event (exit 0 identical, 1 different); join pairs client-side
// events against server-side events by key and checks the loss accounting
// balances (exit 0 balanced, 1 not). Exit 2 is usage or I/O error.
func runQlog(args []string, filter string) int {
	if len(args) < 1 {
		fmt.Fprintln(os.Stderr, "rootanalyze: -qlog wants a verb: show, compose, diff, join")
		return 2
	}
	verb, rest := args[0], args[1:]
	switch verb {
	case "show", "compose":
		if len(rest) != 1 {
			fmt.Fprintf(os.Stderr, "rootanalyze: -qlog %s wants one flight-log file\n", verb)
			return 2
		}
		flt, err := parseQlogFilter(filter)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rootanalyze: %v\n", err)
			return 2
		}
		evs, code := loadQlog(rest[0])
		if code != 0 {
			return code
		}
		evs = flt.apply(evs)
		if verb == "show" {
			return qlogShow(evs)
		}
		return qlogCompose(evs)
	case "diff":
		if len(rest) != 2 {
			fmt.Fprintln(os.Stderr, "rootanalyze: -qlog diff wants two flight-log files")
			return 2
		}
		return qlogDiff(rest[0], rest[1])
	case "join":
		if len(rest) != 2 {
			fmt.Fprintln(os.Stderr, "rootanalyze: -qlog join wants server.qlog client.qlog")
			return 2
		}
		return qlogJoin(rest[0], rest[1])
	default:
		fmt.Fprintf(os.Stderr, "rootanalyze: unknown -qlog verb %q (want show, compose, diff, join)\n", verb)
		return 2
	}
}

// loadQlog decodes one flight log, warning (not failing) on a torn tail —
// same stance as the dataset replayer.
func loadQlog(path string) ([]qlog.Event, int) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rootanalyze: %v\n", err)
		return nil, 2
	}
	defer f.Close()
	r, err := qlog.NewReader(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rootanalyze: %s: %v\n", path, err)
		return nil, 2
	}
	evs, err := r.Events()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rootanalyze: %s: %v\n", path, err)
		return nil, 2
	}
	if r.Torn() {
		fmt.Fprintf(os.Stderr, "rootanalyze: warning: %s has a torn trailing block (%v); "+
			"decoded the sealed prefix only\n", path, r.TornReason())
	}
	return evs, 0
}

// qlogFilter selects events by kind name, class enum name, and rcode value.
// Zero fields match everything.
type qlogFilter struct {
	kind  string
	class string
	rcode int64 // -1 = any
}

func parseQlogFilter(s string) (qlogFilter, error) {
	f := qlogFilter{rcode: -1}
	if s == "" {
		return f, nil
	}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return f, fmt.Errorf("bad -filter term %q (want key=value)", part)
		}
		switch k {
		case "kind":
			f.kind = v
		case "class":
			f.class = v
		case "rcode":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return f, fmt.Errorf("bad -filter rcode %q", v)
			}
			f.rcode = n
		default:
			return f, fmt.Errorf("unknown -filter key %q (want kind, class, rcode)", k)
		}
	}
	return f, nil
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
		if f.rcode >= 0 && !fieldHasNumValue(e, "rcode", uint64(f.rcode)) {
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
func qlogShow(evs []qlog.Event) int {
	qlog.SortCanonical(evs)
	for _, e := range evs {
		fmt.Println(e.String())
	}
	fmt.Printf("%d events\n", len(evs))
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
func qlogCompose(evs []qlog.Event) int {
	total := len(evs)
	fmt.Printf("%d events\n", total)
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
		fmt.Printf("\n%s: %d events\n", d.Kind, len(kindEvs))
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
				fmt.Printf("  %-10s %-10s %6d  %5.1f%%\n",
					fd.Name, label, n, 100*float64(n)/float64(len(kindEvs)))
			}
		}
	}
	return 0
}

// qlogDiff compares two flight logs in canonical order: the logical event
// streams must carry identical content, whatever append order shard
// scheduling produced. Prints the first diverging event when they differ.
func qlogDiff(pathA, pathB string) int {
	a, code := loadQlog(pathA)
	if code != 0 {
		return code
	}
	b, code := loadQlog(pathB)
	if code != 0 {
		return code
	}
	qlog.SortCanonical(a)
	qlog.SortCanonical(b)
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if qlog.Compare(a[i], b[i]) != 0 {
			fmt.Printf("flight logs differ: first divergence at event %d\n  a: %s\n  b: %s\n",
				i, a[i], b[i])
			return 1
		}
	}
	if len(a) != len(b) {
		longer, path := a, pathA
		if len(b) > len(a) {
			longer, path = b, pathB
		}
		fmt.Printf("flight logs differ: %s has %d extra events, first extra:\n  %s\n",
			path, len(longer)-n, longer[n])
		return 1
	}
	fmt.Printf("flight logs identical: %d events\n", n)
	return 0
}

// clientLost reports whether a client-side event's terminal outcome is a
// loss (blast/query outcome=lost, client/query outcome=error).
func clientLost(e qlog.Event) bool {
	switch e.Def().Kind {
	case "blast/query":
		return e.Val("outcome") == 1
	case "client/query":
		return e.Val("outcome") == 2
	}
	return false
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
func qlogJoin(serverPath, clientPath string) int {
	sevs, code := loadQlog(serverPath)
	if code != 0 {
		return code
	}
	cevs, code := loadQlog(clientPath)
	if code != 0 {
		return code
	}
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
		k := e.Def().Kind
		if k != "blast/query" && k != "client/query" {
			continue
		}
		sent++
		attempts[e.Val("attempts")]++
		waitUs += e.Val("wait_us")
		if clientLost(e) {
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
	fmt.Printf("join: client=%d server=%d sent=%d matched=%d lost=%d unmatched=%d\n",
		len(cevs), len(sevs), sent, matched, lost, unmatched)
	for _, why := range []string{"egress-lost", "rrl-drop", "ingress-drop", "no-server-event"} {
		if n := lostWhy[why]; n > 0 {
			fmt.Printf("  lost by server outcome: %-15s %d\n", why, n)
		}
	}
	keys := make([]uint64, 0, len(attempts))
	for a := range attempts {
		keys = append(keys, a)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, a := range keys {
		fmt.Printf("  attempts=%d: %d\n", a, attempts[a])
	}
	fmt.Printf("  backoff waited: %dus total\n", waitUs)
	if sent == matched+lost {
		fmt.Println("balance: sent == matched + lost")
		return 0
	}
	fmt.Printf("balance BROKEN: sent=%d != matched=%d + lost=%d (%d ok-but-unmatched)\n",
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

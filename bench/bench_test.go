//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/stats"
)

// TestMain lets the test binary play the benchmark's child roles, exactly as
// main does, so the workloads that start a child of "this binary" work under
// go test too.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) and
	// statistics.median(xs) from Python 3.11.
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
		med        float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 5.5},
		{[]float64{3, 1, 2}, 1, 2, 3, 2},
		{[]float64{1, 2}, 0.75, 1.5, 2.25, 1.5},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5, 25},
		{[]float64{5, 5, 5, 5, 5}, 5, 5, 5, 5},
		{[]float64{14.1, 16.7, 15.2, 14.8, 15.9, 15.1, 14.9, 16.0, 15.5, 15.3}, 14.875, 15.25, 15.925, 15.25},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) || !near(stats.Median(c.xs), c.med) {
			t.Errorf("quartiles(%v) = %v %v %v median %v, want %v %v %v median %v", c.xs, q1, q2, q3, stats.Median(c.xs), c.q1, c.q2, c.q3, c.med)
		}
	}
	if s := spread([]float64{10, 20, 30, 40}); !near(s, 1) {
		t.Errorf("spread = %v, want 1", s)
	}
	if q1, _, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one value = %v..%v, want 7..7", q1, q3)
	}
	if !math.IsNaN(stats.Median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileAndSlices(t *testing.T) {
	sorted := []uint32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for p, want := range map[float64]float64{50: 50, 99: 100, 10: 10, 0: 10, 100: 100, 91: 100, 90: 90} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	// Three whole slices of four queries and one partial slice that must be
	// left out; zero latency marks a failed query.
	lat := []uint32{
		1000, 2000, 3000, 4000,
		5000, 0, 7000, 0,
		9000, 9000, 9000, 9000,
		1, 2,
	}
	p50 := sliceP50s(lat, 4)
	want := []float64{2, 5, 9}
	if len(p50) != len(want) {
		t.Fatalf("sliceP50s gave %d slices, want %d", len(p50), len(want))
	}
	for i := range want {
		if p50[i] != want[i] {
			t.Errorf("slice %d: p50 %v, want %v", i, p50[i], want[i])
		}
	}
	if got := stats.Median(p50); got != 5 {
		t.Errorf("median of slice medians = %v, want 5", got)
	}
}

func TestCorpusDeterminismAndJunkUniqueness(t *testing.T) {
	a, err := hotCorpus(512, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hotCorpus(512, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := hotCorpus(512, 8)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	junkInHot := 0
	for i := range a.wires {
		if !bytes.Equal(a.wires[i], b.wires[i]) {
			t.Fatalf("query %d differs between two corpora of one seed", i)
		}
		if !bytes.Equal(a.wires[i], c.wires[i]) {
			differs = true
		}
		isJunk := bytes.Contains(a.wires[i], junkLabel)
		if isJunk {
			junkInHot++
		}
		if want := byte(rcodeNoError); isJunk {
			if a.rcode[i] != rcodeNXDomain {
				t.Errorf("junk query %d expects rcode %d", i, a.rcode[i])
			}
		} else if a.rcode[i] != want {
			t.Errorf("query %d expects rcode %d", i, a.rcode[i])
		}
	}
	if !differs {
		t.Error("two seeds gave the same corpus")
	}
	if junkInHot == 0 || junkInHot == len(a.wires) {
		t.Errorf("hot corpus holds %d junk queries of %d: not the B-Root mix", junkInHot, len(a.wires))
	}

	for _, seed := range []uint64{1, 2, 3} {
		j, err := junkCorpus(4096, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		seen := make(map[string]bool)
		for i, w := range j.wires {
			if j.rcode[i] != rcodeNXDomain {
				t.Fatalf("seed %d: junk query %d does not expect NXDOMAIN", seed, i)
			}
			name := string(w[12 : j.qEnd[i]-4])
			if seen[name] {
				t.Fatalf("seed %d: junk name repeats at %d", seed, i)
			}
			seen[name] = true
		}
	}
}

func TestCheckResponse(t *testing.T) {
	c, err := junkCorpus(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	q, end := c.wires[0], c.qEnd[0]
	good := append([]byte(nil), q[:end]...)
	good[2] |= 0x80
	good[3] = good[3]&0xf0 | rcodeNXDomain
	binaryPut16(good[10:], 0) // no additional section in this hand-made reply
	if why := checkResponse(good, q, end, rcodeNXDomain); why != "" {
		t.Fatalf("good reply rejected: %s", why)
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	bad := map[string][]byte{
		"QR":       mutate(func(b []byte) []byte { b[2] &^= 0x80; return b }),
		"rcode":    mutate(func(b []byte) []byte { b[3] &^= 0x0f; return b }),
		"question": mutate(func(b []byte) []byte { b[14] ^= 0x20; return b }),
		"QDCOUNT":  mutate(func(b []byte) []byte { b[5] = 2; return b }),
		"short":    mutate(func(b []byte) []byte { return b[:end-1] }),
	}
	for name, b := range bad {
		if checkResponse(b, q, end, rcodeNXDomain) == "" {
			t.Errorf("reply with a wrong %s was accepted", name)
		}
	}
}

func binaryPut16(b []byte, v uint16) { b[0], b[1] = byte(v>>8), byte(v) }

// echoServer is the in-tree echo loop on a goroutine; drop, when positive,
// swallows every drop-th datagram instead.
func echoServer(t *testing.T, drop int) netip.AddrPort {
	t.Helper()
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if drop <= 0 {
			echoLoop(conn)
			return
		}
		buf := make([]byte, 64<<10)
		for n := 1; ; n++ {
			size, addr, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			if n%drop != 0 {
				_, _ = conn.WriteToUDPAddrPort(buf[:size], addr)
			}
		}
	}()
	t.Cleanup(func() {
		conn.Close()
		<-done
	})
	return conn.LocalAddr().(*net.UDPAddr).AddrPort()
}

func dialTest(t *testing.T, addr netip.AddrPort) int {
	t.Helper()
	fd, err := dialUDP(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	return fd
}

func TestGeneratorScheduleAgainstEcho(t *testing.T) {
	c, err := hotCorpus(128, 1)
	if err != nil {
		t.Fatal(err)
	}
	fd := dialTest(t, echoServer(t, 0))
	var unpinned placement

	// On schedule: 400 queries at 2000 qps take a fifth of a second, no
	// sooner, and every one comes back.
	const rate, count = 2000, 400
	tr := newTracer()
	res, err := generate(fd, unpinned, genConfig{corpus: c, count: count, rate: rate, verify: verifyEcho, spans: tr.layer("echo")})
	if err != nil {
		t.Fatal(err)
	}
	if res.sent != count || res.verified != count || res.failed() != 0 || res.stray != 0 {
		t.Fatalf("sent %d verified %d failed %d stray %d, want %d %d 0 0", res.sent, res.verified, res.failed(), res.stray, count, count)
	}
	if min := time.Duration(count-1) * time.Second / rate; res.wall < min {
		t.Errorf("pass took %v: the schedule was compressed below %v", res.wall, min)
	}
	if res.late > res.sent {
		t.Errorf("late %d of %d sent", res.late, res.sent)
	}
	for i, l := range res.latNs {
		if l == 0 {
			t.Fatalf("query %d has no latency", i)
		}
	}
	if l := tr.layer("echo"); l.calls != count || tr.count() != count {
		t.Errorf("tracer holds %d spans, want %d", l.calls, count)
	}

	// Behind schedule: a rate no loop can hold makes nearly every send
	// late, the in-flight cap keeps the echo's socket from overflowing, and
	// latency counted from the due time grows past the wire round trip.
	res, err = generate(fd, unpinned, genConfig{corpus: c, count: 4000, rate: 20_000_000, verify: verifyEcho})
	if err != nil {
		t.Fatal(err)
	}
	if res.verified != 4000 || res.failed() != 0 {
		t.Fatalf("overdriven pass: verified %d failed %d, want 4000 and 0", res.verified, res.failed())
	}
	if res.late < 3000 || res.lateMax <= lateThreshold {
		t.Errorf("overdriven pass: late %d (max %v), want nearly all of 4000", res.late, res.lateMax)
	}
}

func TestGeneratorCountsFailures(t *testing.T) {
	c, err := hotCorpus(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	var unpinned placement

	// A tenth of the datagrams vanish: exactly those time out.
	fd := dialTest(t, echoServer(t, 10))
	res, err := generate(fd, unpinned, genConfig{corpus: c, count: 200, rate: 4000, verify: verifyEcho})
	if err != nil {
		t.Fatal(err)
	}
	if res.timeouts != 20 || res.verified != 180 || res.bad != 0 {
		t.Fatalf("timeouts %d verified %d bad %d, want 20 180 0", res.timeouts, res.verified, res.bad)
	}
	for i, l := range res.latNs {
		if failed := (i+1)%10 == 0; failed != (l == 0) {
			t.Fatalf("query %d: latency %d, dropped=%v", i, l, failed)
		}
	}

	// Closed loop with capture, then a pass that compares every reply with
	// what was captured; a tampered capture must show up as a bad reply.
	fd = dialTest(t, echoServer(t, 0))
	if res, err = generate(fd, unpinned, genConfig{corpus: c, count: c.len(), verify: verifyEcho, capture: true}); err != nil || res.failed() != 0 {
		t.Fatalf("capture pass: %v, %d failed", err, res.failed())
	}
	for i, a := range c.answers {
		if a == nil || a[0] != 0 || a[1] != 0 || !bytes.Equal(a[2:], c.wires[i][2:]) {
			t.Fatalf("answer %d was not captured with its ID zeroed", i)
		}
	}
	if res, err = generate(fd, unpinned, genConfig{corpus: c, count: c.len(), verify: verifyEcho, compareEvery: 1}); err != nil || res.failed() != 0 {
		t.Fatalf("compare pass: %v, %d failed (%s)", err, res.failed(), res.firstBad)
	}
	c.answers[5][len(c.answers[5])-1] ^= 1
	res, err = generate(fd, unpinned, genConfig{corpus: c, count: c.len(), verify: verifyEcho, compareEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.bad != 1 || !strings.Contains(res.firstBad, "captured") {
		t.Errorf("tampered capture: bad %d (%q), want 1", res.bad, res.firstBad)
	}
}

func TestTracerKeepsTotalsPastItsCapacity(t *testing.T) {
	tr := &tracer{epoch: time.Now(), spans: make([]span, 0, 4)}
	l := tr.layer("x")
	parent := l.begin()
	for i := 0; i < 10; i++ {
		tr.layer("y").add(int64(i), 5, parent)
	}
	l.end(parent)
	if y := tr.layer("y"); y.calls != 10 || y.ns != 50 || y.perCall() != 5 {
		t.Errorf("layer y: %d calls %d ns", y.calls, y.ns)
	}
	if len(tr.spans) != 4 || tr.count() != 11 {
		t.Errorf("kept %d spans and counted %d, want 4 and 11", len(tr.spans), tr.count())
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Layers map[string]struct{ Calls, Ns int64 }
		Spans  [][]any
	}
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if parsed.Layers["y"].Calls != 10 || len(parsed.Spans) != 4 {
		t.Errorf("trace file holds %d calls of y and %d spans", parsed.Layers["y"].Calls, len(parsed.Spans))
	}
}

func TestJudge(t *testing.T) {
	lower := metricDecl{Name: "cpu_us_per_op", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100.5, 99.5}
	cases := []struct {
		name string
		d    metricDecl
		a, b []float64
		want verdict
	}{
		{"same", lower, base, []float64{101, 100, 102, 99, 100.2}, same},
		{"within bound", lower, base, []float64{106, 107, 105, 106.5, 105.5}, same},
		{"worse", lower, base, []float64{115, 116, 114, 115.5, 114.5}, worse},
		{"every run better", lower, base, []float64{90, 91, 89, 90.5, 89.5}, better},
		{"overlapping but better", lower, []float64{100, 102, 98, 101, 99, 100, 100, 100, 100, 100},
			[]float64{96, 97, 98.5, 96.5, 97.5, 96, 97, 96, 97, 96}, better},
		{"noisy baseline", lower, []float64{80, 120, 100, 60, 140}, []float64{101, 100, 102, 99, 100}, unresolved},
		{"noisy candidate", lower, base, []float64{80, 120, 100, 60, 140}, unresolved},
		{"noisy but every run better", lower, []float64{80, 120, 100, 70, 140}, []float64{50, 51, 49, 50, 50}, better},
		{"higher is better: worse", higher, base, []float64{85, 86, 84, 85, 85}, worse},
		{"higher is better: better", higher, base, []float64{120, 121, 119, 120, 120}, better},
		{"single runs", lower, []float64{100}, []float64{104}, same},
		{"single runs worse", lower, []float64{100}, []float64{120}, worse},
		{"missing", lower, base, nil, unresolved},
	}
	for _, c := range cases {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFixtures(t *testing.T) {
	base := filepath.Join("testdata", "compare_base.json")
	for file, want := range map[string]int{
		"compare_base.json":  0,
		"compare_same.json":  0,
		"compare_worse.json": 1,
		"compare_noisy.json": 0, // unresolved is reported, not failed
		"compare_wrong.json": 1, // a failed output check fails the comparison
	} {
		if got := compareMain([]string{base, filepath.Join("testdata", file)}); got != want {
			t.Errorf("-compare base %s exits %d, want %d", file, got, want)
		}
	}
	if got := compareMain([]string{base}); got != 2 {
		t.Errorf("-compare with one file exits %d, want 2", got)
	}
	a, err := loadResults(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadResults(filepath.Join("testdata", "compare_noisy.json"))
	if err != nil {
		t.Fatal(err)
	}
	d := a.Metrics[2]
	if d.Name != "cpu_us_per_op" {
		t.Fatalf("fixture metric 2 is %s", d.Name)
	}
	if v := judge(d, a.values("serve_hot", d.Name), b.values("serve_hot", d.Name)); v != unresolved {
		t.Errorf("noisy fixture judged %s, want unresolved", v)
	}
}

func TestResultLineAndConformance(t *testing.T) {
	r := newRunResult("campaign", 3, false)
	r.Attempted = 10
	for _, d := range endToEnd {
		r.set(d.Name, 1.5)
	}
	if err := r.conform(endToEnd); err != nil {
		t.Fatalf("complete result rejected: %v", err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(r.line(endToEnd)), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", sortedKeys(line))
	}
	back, err := parseLine(r.line(endToEnd), "campaign", 3, false)
	if err != nil || !back.Correct || back.Attempted != 10 || back.Metrics["setup_s"] != 1.5 {
		t.Errorf("parseLine gave %+v, %v", back, err)
	}

	r.set("extra", 1)
	if r.conform(endToEnd) == nil {
		t.Error("an undeclared metric was accepted")
	}
	delete(r.Metrics, "extra")
	r.set("setup_s", math.NaN())
	if r.conform(endToEnd) == nil {
		t.Error("a NaN metric was accepted")
	}
	delete(r.Metrics, "setup_s")
	if r.conform(endToEnd) == nil {
		t.Error("a missing metric was accepted")
	}

	r = newRunResult("serve_hot", 1, false)
	r.Attempted, r.Failed = 1000, 4
	if r.checkFailedShare(); !r.Correct {
		t.Error("0.4% failed operations made the run incorrect")
	}
	r.Failed = 6
	if r.checkFailedShare(); r.Correct {
		t.Error("0.6% failed operations left the run correct")
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the declarations in decl.go and
// to the limits its readers set.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(sortedKeys(raw), " "); got != "command end_to_end paths per_layer run_seconds workloads" {
		t.Errorf("BENCHMARK.json has keys %q", got)
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDecl `json:"end_to_end"`
		PerLayer []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if strings.Join(f.Command, " ") != "go run ./bench" || len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("command %q paths %q", f.Command, f.Paths)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the benchmark's default is %d", f.RunSeconds, defaultSeconds)
	}
	// The whole set of runs a driver makes must fit its time cap.
	if runs := 4 + 22*len(f.Workloads); float64(runs)*(float64(f.RunSeconds)+12) > 3420 {
		t.Errorf("%d runs of %d s (plus about 12 s of set-up each) do not fit 3420 s", runs, f.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q (%q), decl.go says %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	checkDecls := func(kind string, got, want []metricDecl, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, decl.go has %d", kind, len(got), len(want))
		}
		for i, d := range got {
			checkName(d.Name)
			if d != want[i] {
				t.Errorf("%s metric %d is %+v, decl.go says %+v", kind, i, d, want[i])
			}
			if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s metric %s: unit %q better %q", kind, d.Name, d.Unit, d.Better)
			}
			if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s metric %s: bound %v outside (0, 0.25]", kind, d.Name, d.Bound)
			}
			if !bounded && d.Bound != 0 {
				t.Errorf("%s metric %s carries a bound", kind, d.Name)
			}
		}
	}
	checkDecls("end_to_end", f.EndToEnd, endToEnd, true)
	checkDecls("per_layer", f.PerLayer, perLayer, false)
	if len(f.PerLayer) > 128 || len(f.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the limits", len(f.EndToEnd), len(f.PerLayer))
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not declared")
	}
}

// TestSmoke runs all four workloads end to end, and one of them traced, at
// the smoke sizes: tiny corpora, one-second windows, a month of campaign at
// a twentieth of the population.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds rootserve and starts server children")
	}
	sz := smokeSizes()
	for _, w := range workloads {
		res, err := w.run(sz, 1, 1.5)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := res.conform(endToEnd); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d of %d: %v", w.Name, res.Correct, res.Failed, res.Attempted, res.Problems)
		}
		for name, v := range res.Metrics {
			if v <= 0 {
				t.Errorf("%s: %s = %v, want a positive reading", w.Name, name, v)
			}
		}
	}
	res, err := runTraced("campaign", sz, 1, 1.5)
	if err != nil {
		t.Fatalf("traced campaign: %v", err)
	}
	if err := res.conform(perLayer); err != nil {
		t.Errorf("traced campaign: %v", err)
	}
	if !res.Correct {
		t.Errorf("traced campaign: %v", res.Problems)
	}
	out, err := outDir()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(out, "trace-campaign.json")); err != nil {
		t.Errorf("the traced run left no trace file: %v", err)
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

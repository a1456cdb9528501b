package netem

import (
	"bytes"
	"io"
	"net"
	"net/netip"
	"testing"
	"time"

	"repro/internal/failpoint"
)

// fates runs n packets of one flow through a fresh link and records each
// packet's outcome as a compact rune: 'd' dropped/held, 'p' passed, 'D'
// passed-with-duplicate, 'R' passed-with-reorder-release (two out), 'c'
// corrupted in place.
func fates(t *testing.T, p Profile, flow uint64, n int) string {
	t.Helper()
	l := NewLink(p)
	if l == nil {
		t.Fatalf("NewLink returned nil for non-zero profile %+v", p)
	}
	var out []byte
	pkt := make([]byte, 64)
	for i := 0; i < n; i++ {
		for j := range pkt {
			pkt[j] = byte(i + j)
		}
		orig := append([]byte(nil), pkt...)
		first, second := l.Admit(Ingress, flow, pkt)
		switch {
		case first == nil:
			out = append(out, 'd')
		case second == nil:
			if !bytes.Equal(first, orig) {
				out = append(out, 'c')
			} else {
				out = append(out, 'p')
			}
		case bytes.Equal(first, second):
			out = append(out, 'D')
		default:
			out = append(out, 'R')
		}
	}
	return string(out)
}

func TestFatesDeterministicAcrossRuns(t *testing.T) {
	p := Profile{Loss: 0.1, Dup: 0.05, Reorder: 0.1, Corrupt: 0.05, Seed: 42}
	a := fates(t, p, 7, 2000)
	b := fates(t, p, 7, 2000)
	if a != b {
		t.Fatalf("fate sequences differ across identical runs")
	}
	if c := fates(t, Profile{Loss: 0.1, Dup: 0.05, Reorder: 0.1, Corrupt: 0.05, Seed: 43}, 7, 2000); c == a {
		t.Fatalf("fate sequence insensitive to seed")
	}
	if d := fates(t, p, 8, 2000); d == a {
		t.Fatalf("fate sequence insensitive to flow key")
	}
	// Directions draw from independent streams.
	l := NewLink(p)
	var in, eg []bool
	for i := 0; i < 512; i++ {
		f, _ := l.Admit(Ingress, 7, []byte{1, 2, 3, 4})
		in = append(in, f == nil)
		f, _ = l.Admit(Egress, 7, []byte{1, 2, 3, 4})
		eg = append(eg, f == nil)
	}
	same := 0
	for i := range in {
		if in[i] == eg[i] {
			same++
		}
	}
	if same == len(in) {
		t.Fatalf("ingress and egress fate streams identical")
	}
}

func TestLossRateApproximatesProfile(t *testing.T) {
	const n = 20000
	s := fates(t, Profile{Loss: 0.1, Seed: 1}, 3, n)
	drops := 0
	for _, r := range s {
		if r == 'd' {
			drops++
		}
	}
	got := float64(drops) / n
	if got < 0.08 || got > 0.12 {
		t.Fatalf("loss=0.1 produced drop rate %.4f", got)
	}
}

func TestReorderSwapsAdjacentPackets(t *testing.T) {
	// Reorder=1 with a 2-packet flow: packet 0 is held, packet 1 releases
	// it, delivered as (pkt1, pkt0).
	l := NewLink(Profile{Reorder: 1, Seed: 5})
	p0 := []byte{0xaa, 0x00}
	first, second := l.Admit(Ingress, 1, p0)
	if first != nil || second != nil {
		t.Fatalf("first packet under reorder=1 not held: %v %v", first, second)
	}
	p1 := []byte{0xbb, 0x01}
	first, second = l.Admit(Ingress, 1, p1)
	if !bytes.Equal(first, p1) || !bytes.Equal(second, p0) {
		t.Fatalf("release order wrong: first=%x second=%x", first, second)
	}
}

func TestCorruptFlipsExactlyOneBit(t *testing.T) {
	l := NewLink(Profile{Corrupt: 1, Seed: 9})
	orig := []byte{0, 0, 0, 0, 0, 0, 0, 0}
	pkt := append([]byte(nil), orig...)
	first, _ := l.Admit(Egress, 2, pkt)
	diff := 0
	for i := range first {
		for b := 0; b < 8; b++ {
			if (first[i]^orig[i])&(1<<b) != 0 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("corrupt flipped %d bits, want 1", diff)
	}
}

func TestBlackholeKillsWholeFlows(t *testing.T) {
	l := NewLink(Profile{Blackhole: 0.3, Seed: 11})
	dead := 0
	for flow := uint64(0); flow < 1000; flow++ {
		allDropped := true
		for i := 0; i < 3; i++ {
			if f, _ := l.Admit(Ingress, flow, []byte{1}); f != nil {
				allDropped = false
			}
		}
		if allDropped {
			dead++
		}
	}
	if dead < 200 || dead > 400 {
		t.Fatalf("blackhole=0.3 killed %d/1000 flows", dead)
	}
}

func TestNilLinkPassesThrough(t *testing.T) {
	var l *Link
	pkt := []byte{1, 2, 3}
	first, second := l.Admit(Ingress, 0, pkt)
	if &first[0] != &pkt[0] || second != nil {
		t.Fatalf("nil link altered packet")
	}
	if c := l.WrapConn(nil); c != nil {
		t.Fatalf("nil link wrapped conn")
	}
	if NewLink(Profile{}) != nil {
		t.Fatalf("zero profile built a live link")
	}
}

func TestFlowAddrIgnoresPort(t *testing.T) {
	a := FlowAddr(netip.MustParseAddrPort("192.0.2.1:1234"))
	b := FlowAddr(netip.MustParseAddrPort("192.0.2.1:60001"))
	if a != b {
		t.Fatalf("flow key depends on ephemeral port")
	}
	if FlowAddr(netip.MustParseAddrPort("192.0.2.2:1234")) == a {
		t.Fatalf("flow key insensitive to IP")
	}
	// v4 and its v6-mapped form are one flow.
	if FlowAddr(netip.MustParseAddrPort("[::ffff:192.0.2.1]:53")) != a {
		t.Fatalf("v4-mapped address hashes differently")
	}
}

func TestForcedDropViaFailpoint(t *testing.T) {
	if err := failpoint.Enable("netem/inject=error@2"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable()
	l := NewLink(Profile{Seed: 1, Dup: 0.000001}) // non-zero so link is live
	var got []bool
	for i := 0; i < 4; i++ {
		f, _ := l.Admit(Ingress, 1, []byte{1, 2})
		got = append(got, f == nil)
	}
	want := []bool{false, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("forced-drop pattern %v, want %v", got, want)
		}
	}
}

func TestWrapConnCutsMidStream(t *testing.T) {
	// cut=1 with a fixed byte budget: the writer sees ErrCut once the
	// budget is crossed, and the reader sees a torn stream (short read).
	l := NewLink(Profile{Cut: 1, CutBytes: 100, Seed: 3})
	client, server := net.Pipe()
	defer client.Close()
	wc := l.WrapConn(server)
	read := make(chan int, 1)
	go func() {
		n, _ := io.Copy(io.Discard, client)
		read <- int(n)
	}()
	total, chunks := 0, 0
	var err error
	for chunks = 0; chunks < 10; chunks++ {
		var n int
		n, err = wc.Write(make([]byte, 64))
		total += n
		if err != nil {
			break
		}
	}
	if err != ErrCut {
		t.Fatalf("write error = %v, want ErrCut", err)
	}
	if total >= 64*10 {
		t.Fatalf("cut never limited bytes (wrote %d)", total)
	}
	if _, err := wc.Write([]byte{1}); err != ErrCut {
		t.Fatalf("post-cut write error = %v, want ErrCut", err)
	}
	select {
	case n := <-read:
		if n != total {
			t.Fatalf("peer read %d bytes, writer passed %d", n, total)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("peer never observed the cut")
	}
	// Uncut profile returns the conn unwrapped.
	if c := NewLink(Profile{Loss: 0.5, Seed: 1}).WrapConn(server); c != server {
		t.Fatalf("cut=0 wrapped the conn")
	}
}

func TestParseProfileRoundTrip(t *testing.T) {
	spec := "loss=0.1,dup=0.02,reorder=0.05,corrupt=0.01,blackhole=0.3,cut=0.5,cutbytes=512,delay=1ms,jitter=500us,seed=99"
	var p, back, z Profile
	if err := p.Set(spec); err != nil {
		t.Fatal(err)
	}
	if p.Loss != 0.1 || p.Dup != 0.02 || p.Reorder != 0.05 || p.Corrupt != 0.01 ||
		p.Blackhole != 0.3 || p.Cut != 0.5 || p.CutBytes != 512 ||
		p.Delay != time.Millisecond || p.Jitter != 500*time.Microsecond || p.Seed != 99 {
		t.Fatalf("parsed %+v", p)
	}
	if err := back.Set(p.String()); err != nil || back != p {
		t.Fatalf("round trip %+v != %+v (%v)", back, p, err)
	}
	if err := z.Set(" "); err != nil || !z.zero() {
		t.Fatalf("blank spec: %+v, %v", z, err)
	}
	for _, bad := range []string{"loss", "loss=2", "loss=x", "wat=1", "delay=fast", "seed=-1", "loss=0.1,"} {
		if err := z.Set(bad); err == nil {
			t.Fatalf("Set(%q) accepted", bad)
		}
	}
}

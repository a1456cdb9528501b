//go:build linux

package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"runtime"
	"sort"
	"syscall"
	"time"
)

const (
	// answerTimeout is how long a query may stay unanswered after it was
	// sent before it counts as failed, unless genConfig says otherwise. It
	// is a second because this guest's CPUs now and then vanish for a
	// quarter of one, and a server that was not running has not lost a
	// query; the wait still counts in full as that query's latency.
	answerTimeout = time.Second
	// lateThreshold is how far behind schedule a send may run before it is
	// counted in late_share.
	lateThreshold = 100 * time.Microsecond
	// primeWindow is the number of queries a closed-loop pass keeps in
	// flight: enough to keep a single-loop server busy, few enough that its
	// receive buffer never overflows.
	primeWindow = 16
	// maxInFlight caps the queries an open-loop pass has outstanding. After
	// one of this machine's stalls the schedule is hundreds of sends behind,
	// and sent back to back they overflow the server's default socket buffer
	// (about 270 small datagrams): the loss would be the generator's doing.
	// At the cap the generator waits instead, and since latency counts from
	// the due time the wait is charged to every query it delays. In steady
	// state a handful of queries are in flight, so the cap binds only after
	// a stall or when the server cannot keep up with the offered rate.
	maxInFlight = 128
)

// verifyMode says what a correct reply looks like.
type verifyMode int

const (
	// verifyDNS: the reply is a response to the question asked, with the
	// rcode the corpus expects.
	verifyDNS verifyMode = iota
	// verifyEcho: the reply is the datagram that was sent.
	verifyEcho
)

// genConfig is one pass of the generator over a stretch of a corpus.
type genConfig struct {
	corpus *corpus
	// first is the corpus index of the first query; the pass sends count
	// queries, wrapping around the corpus.
	first, count int
	// rate is the open-loop send rate in queries per second. Zero makes the
	// pass closed-loop: primeWindow queries in flight, the next sent when an
	// answer arrives.
	rate   int
	verify verifyMode
	// timeout overrides answerTimeout when positive.
	timeout time.Duration
	// capture stores each reply in corpus.answers (ID zeroed); compareEvery,
	// when positive, byte-compares every n-th reply against the stored one.
	capture      bool
	compareEvery int
	// spans, when non-nil, receives one span per answered query, from the
	// instant its latency counts from to the reply: the traced run.
	spans *layerSpans
	// everySecond, when non-nil, is called on the generator thread as each
	// whole second of an open-loop schedule begins (second 0 before the
	// first send) and once more when the last query has been answered. The
	// serve workloads read the server's CPU clock in it.
	everySecond func()
}

// genResult is what one pass saw.
type genResult struct {
	sent     int
	verified int
	timeouts int // no reply within answerTimeout
	bad      int // a reply that failed verification
	stray    int // a reply matching no outstanding query
	firstBad string

	// wall runs from the first send to the last reply (or last timeout).
	wall time.Duration
	// latNs[i] is query i's latency from its due time (open loop) or send
	// time (closed loop) in nanoseconds; zero means it failed.
	latNs []uint32
	// late counts sends that left more than lateThreshold behind schedule;
	// lateMax is the worst of them.
	late    int
	lateMax time.Duration
	// cpu is the generator thread's own CPU time over the pass.
	cpu time.Duration
}

func (r *genResult) failed() int { return r.timeouts + r.bad }

// dialUDP opens one connected, non-blocking IPv4 UDP socket. The generator
// polls it from a single thread, so the Go netpoller is deliberately not
// involved: a parked receiver would add a wake-up per packet.
func dialUDP(addr netip.AddrPort) (int, error) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return -1, fmt.Errorf("socket: %w", err)
	}
	// A stall of the generator's CPU must queue replies, not drop them. The
	// forced variant needs privilege; the plain one is capped by rmem_max.
	const rcvBuf = 16 << 20
	if syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUFFORCE, rcvBuf) != nil {
		_ = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF, rcvBuf) // best effort: the default still works
	}
	sa := &syscall.SockaddrInet4{Port: int(addr.Port()), Addr: addr.Addr().As4()}
	if err := syscall.Connect(fd, sa); err != nil {
		syscall.Close(fd)
		return -1, fmt.Errorf("connect %s: %w", addr, err)
	}
	return fd, nil
}

// generate runs one pass on the calling goroutine, which it locks to its OS
// thread (and pins, when p says so) for the duration. It allocates nothing
// between the first send and the last reply.
func generate(fd int, p placement, cfg genConfig) (*genResult, error) {
	if cfg.count <= 0 || cfg.corpus.len() == 0 {
		return nil, errors.New("loadgen: nothing to send")
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if p.pinned {
		if err := pinThread(p.genCPU); err != nil {
			return nil, fmt.Errorf("loadgen: pin to cpu %d: %w", p.genCPU, err)
		}
		defer pinThread(p.all...)
	}

	c := cfg.corpus
	res := &genResult{latNs: make([]uint32, cfg.count)}
	// pendSeq[id] is 1 + the sequence number of the outstanding query with
	// that message ID (0 = none); pendAt[id] is the instant its latency is
	// counted from (its due time in an open loop) and sentAt[id] the instant
	// it really left, which is what the answer timeout runs from: a query
	// sent late by a stall has not been waiting for the server.
	pendSeq := make([]int32, 1<<16)
	pendAt := make([]int64, 1<<16)
	sentAt := make([]int64, 1<<16)
	sendBuf := make([]byte, 0, 512)
	recvBuf := make([]byte, 64<<10)
	timeout := int64(answerTimeout)
	if cfg.timeout > 0 {
		timeout = int64(cfg.timeout)
	}
	var interval float64
	if cfg.rate > 0 {
		interval = float64(time.Second) / float64(cfg.rate)
	}

	var firstErr error
	var spanBase int64 // the pass's clock zero on the tracer's clock
	handle := func(buf []byte, now int64) {
		if len(buf) < 2 {
			res.stray++
			return
		}
		id := binary.BigEndian.Uint16(buf)
		seq := int(pendSeq[id]) - 1
		if seq < 0 {
			res.stray++
			return
		}
		pendSeq[id] = 0
		ci := (cfg.first + seq) % c.len()
		var why string
		switch cfg.verify {
		case verifyEcho:
			if !bytes.Equal(buf[2:], c.wires[ci][2:]) {
				why = "echo differs from the datagram sent"
			}
		default:
			why = checkResponse(buf, c.wires[ci], c.qEnd[ci], c.rcode[ci])
		}
		if why == "" && cfg.compareEvery > 0 && seq%cfg.compareEvery == 0 {
			want := c.answers[ci]
			if want == nil || len(want) != len(buf) || !bytes.Equal(want[2:], buf[2:]) {
				why = "reply differs from the answer captured while priming"
			}
		}
		if cfg.capture && why == "" {
			ans := append([]byte(nil), buf...)
			ans[0], ans[1] = 0, 0
			c.answers[ci] = ans
		}
		if why != "" {
			res.bad++
			if res.firstBad == "" {
				res.firstBad = fmt.Sprintf("query %d: %s", ci, why)
			}
			return
		}
		lat := now - pendAt[id]
		if lat < 1 {
			lat = 1
		}
		res.latNs[seq] = uint32(min(lat, int64(^uint32(0))))
		res.verified++
		if cfg.spans != nil {
			cfg.spans.add(spanBase+pendAt[id], lat, 0)
		}
	}

	base := time.Now()
	if cfg.spans != nil {
		spanBase = int64(base.Sub(cfg.spans.t.epoch))
	}
	cpu0 := threadCPU()
	next, reaped, outstanding := 0, 0, 0
	var lastEvent int64
	for reaped < cfg.count {
		now := int64(time.Since(base))
		// Send everything that is due.
		for next < cfg.count {
			at := now
			if cfg.rate > 0 {
				at = int64(float64(next) * interval)
				if at > now || outstanding >= maxInFlight {
					break
				}
				if cfg.everySecond != nil && next%cfg.rate == 0 {
					cfg.everySecond()
					now = int64(time.Since(base))
				}
				if behind := time.Duration(now - at); behind > lateThreshold {
					res.late++
					if behind > res.lateMax {
						res.lateMax = behind
					}
				}
			} else if outstanding >= primeWindow {
				break
			}
			id := uint16(next)
			if pendSeq[id] != 0 {
				break // the ID from 65536 queries ago is still open; reap first
			}
			sendBuf = append(sendBuf[:0], c.wires[(cfg.first+next)%c.len()]...)
			binary.BigEndian.PutUint16(sendBuf, id)
			if _, err := syscall.Write(fd, sendBuf); err != nil && err != syscall.EAGAIN && err != syscall.ENOBUFS && err != syscall.ECONNREFUSED {
				firstErr = fmt.Errorf("loadgen: send: %w", err)
				break
			}
			// A send the kernel refused stays pending and times out: it
			// counts as a failed query, exactly like a dropped one.
			pendSeq[id], pendAt[id], sentAt[id] = int32(next+1), at, now
			next++
			outstanding++
			res.sent++
			now = int64(time.Since(base))
		}
		if firstErr != nil {
			break
		}
		// Take every reply that has arrived.
		for {
			n, err := syscall.Read(fd, recvBuf)
			if err != nil {
				if err == syscall.EAGAIN || err == syscall.EINTR || err == syscall.ECONNREFUSED {
					break
				}
				firstErr = fmt.Errorf("loadgen: receive: %w", err)
				break
			}
			now = int64(time.Since(base))
			before := res.verified + res.bad
			handle(recvBuf[:n], now)
			if res.verified+res.bad > before {
				outstanding--
				lastEvent = now
			}
		}
		if firstErr != nil {
			break
		}
		// Close the books on queries older than the timeout. Sequence
		// numbers are sent in order, so the oldest open one is at reaped.
		for reaped < next {
			id := uint16(reaped)
			if int(pendSeq[id])-1 == reaped {
				if now-sentAt[id] < timeout {
					break
				}
				pendSeq[id] = 0
				res.timeouts++
				outstanding--
				lastEvent = now
			}
			reaped++
		}
	}
	if cfg.everySecond != nil {
		cfg.everySecond()
	}
	res.cpu = threadCPU() - cpu0
	res.wall = time.Duration(lastEvent)
	return res, firstErr
}

// checkResponse says why resp is not a correct answer to query, or "" when
// it is: a response (QR), to the one question asked, byte for byte, with
// the expected rcode.
func checkResponse(resp, query []byte, qEnd int, rcode byte) string {
	switch {
	case len(resp) < qEnd:
		return "reply shorter than the question it should echo"
	case resp[2]&0x80 == 0:
		return "QR bit not set"
	case binary.BigEndian.Uint16(resp[4:6]) != 1:
		return "QDCOUNT is not 1"
	case !bytes.Equal(resp[12:qEnd], query[12:qEnd]):
		return "question section not echoed"
	case resp[3]&0x0f != rcode:
		return fmt.Sprintf("rcode %d, want %d", resp[3]&0x0f, rcode)
	}
	return ""
}

// sliceP50s cuts an open-loop pass into whole seconds of schedule and
// returns each slice's median latency in microseconds over the queries that
// were answered. A trailing partial second is left out; a pass shorter than
// a second is one slice.
func sliceP50s(latNs []uint32, rate int) []float64 {
	rate = min(rate, len(latNs))
	var p50us []float64
	buf := make([]uint32, 0, rate)
	for lo := 0; lo+rate <= len(latNs); lo += rate {
		buf = buf[:0]
		for _, l := range latNs[lo : lo+rate] {
			if l != 0 {
				buf = append(buf, l)
			}
		}
		sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
		if len(buf) > 0 {
			p50us = append(p50us, percentile(buf, 50)/1e3)
		}
	}
	return p50us
}

// stallProbe spins on the clock for d on the calling (pinned) thread and
// returns the share of wall time lost to gaps longer than lateThreshold:
// time the hypervisor or the kernel took the CPU away from a thread that
// never yields. It is the noise floor of everything the generator times.
func stallProbe(p placement, d time.Duration) float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if p.pinned {
		if pinThread(p.genCPU) == nil {
			defer pinThread(p.all...)
		}
	}
	start := time.Now()
	prev := time.Duration(0)
	var lost time.Duration
	for {
		now := time.Since(start)
		if gap := now - prev; gap > lateThreshold {
			lost += gap
		}
		prev = now
		if now >= d {
			return float64(lost) / float64(now)
		}
	}
}

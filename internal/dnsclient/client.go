// Package dnsclient implements the querying side of the measurement battery:
// UDP queries with timeout and bounded retry (the paper's
// `dig +retry=0 +timeout=1`), TCP fallback on truncation, CHAOS identity
// queries, and AXFR over TCP. It speaks to real sockets; the measure package
// also drives servers in-process through the same message types.
package dnsclient

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/axfr"
	"repro/internal/dnswire"
	"repro/internal/seeded"
	"repro/internal/zone"
)

// Errors returned by the client.
var (
	ErrTimeout    = errors.New("dnsclient: query timed out")
	ErrIDMismatch = errors.New("dnsclient: response ID mismatch")
)

// Client issues DNS queries to one server address. The exported fields are
// configuration: callers set them before the first query and leave them
// alone, so concurrent queries on one client are safe.
type Client struct {
	// Addr is the server's host:port.
	//rootlint:immutable-after-start
	Addr string
	// Timeout bounds each network attempt (dig +timeout). Default 1s.
	//rootlint:immutable-after-start
	Timeout time.Duration
	// Retries is the number of re-sends after the first attempt
	// (dig +retry). The paper's battery uses 0.
	//rootlint:immutable-after-start
	Retries int
	// EDNSSize, when non-zero, attaches an OPT record advertising this
	// payload size with the DO bit set.
	//rootlint:immutable-after-start
	EDNSSize uint16
	// Backoff paces re-sends between retry attempts. The zero value —
	// retry immediately, like dig — is the battery default; see Backoff.
	//rootlint:immutable-after-start
	Backoff Backoff

	mu sync.Mutex
	//rootlint:guardedby mu
	rng *rand.Rand
}

// New returns a client for addr with the paper's dig settings
// (+retry=0 +timeout=1). Query IDs are drawn from a seed derived from addr,
// so a default construction anywhere inside a campaign run is reproducible:
// the same target yields the same ID sequence on every run, and distinct
// targets get distinct sequences. Callers that need a specific sequence —
// or deliberate entropy — pass their own seed through NewSeeded.
func New(addr string) *Client {
	return NewSeeded(addr, addrSeed(addr))
}

// addrSeed derives a stable per-target seed (FNV-1a over addr). The basis is
// the standard one with its last digit missing — a typo when it was written,
// kept because every default query-ID sequence recorded since starts from it.
func addrSeed(addr string) int64 {
	return int64(seeded.FNVString(1469598103934665603, addr))
}

// NewSeeded is New with an explicit query-ID seed: two clients built with
// the same seed issue identical ID sequences, which keeps recorded exchanges
// and test transcripts byte-stable.
func NewSeeded(addr string, seed int64) *Client {
	return &Client{
		Addr:    addr,
		Timeout: time.Second,
		Retries: 0,
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// SetTimeout replaces the per-attempt timeout. Like all Client
// configuration it must happen before the first query; lockcheck enforces
// that plain writes to config fields stay inside constructors and Set*
// swap points.
//
//rootlint:allow deadcode: bench/traced.go gives its loopback AXFR probe (axfr.tcp_transfer_ms) a 10 s timeout
func (c *Client) SetTimeout(d time.Duration) { c.Timeout = d }

// SetEDNSSize configures the client to attach an OPT record advertising
// this payload size with the DO bit set (0 disables EDNS). Call before the
// first query.
func (c *Client) SetEDNSSize(n uint16) { c.EDNSSize = n }

func (c *Client) nextID() uint16 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng == nil {
		// A zero-value Client gets the same derived seed New would use.
		c.rng = rand.New(rand.NewSource(addrSeed(c.Addr)))
	}
	return uint16(c.rng.Uint32())
}

// Query sends a class-IN query for (name, typ) over UDP, falling back to TCP
// when the response is truncated.
func (c *Client) Query(name dnswire.Name, typ dnswire.Type) (*dnswire.Message, error) {
	q := dnswire.NewQuery(c.nextID(), name, typ)
	if c.EDNSSize > 0 {
		q.WithEDNS(c.EDNSSize, true)
	}
	return c.Exchange(q)
}

// QueryChaosTXT sends a CH TXT identity query such as hostname.bind and
// returns the first TXT string, or an error.
func (c *Client) QueryChaosTXT(name dnswire.Name) (string, error) {
	resp, err := c.Exchange(dnswire.NewChaosQuery(c.nextID(), name))
	if err != nil {
		return "", err
	}
	if resp.Header.Rcode != dnswire.RcodeNoError {
		return "", fmt.Errorf("dnsclient: %s for %s", resp.Header.Rcode, name)
	}
	for _, rr := range resp.Answers {
		if txt, ok := rr.Data.(dnswire.TXTRecord); ok && len(txt.Strings) > 0 {
			return txt.Strings[0], nil
		}
	}
	return "", fmt.Errorf("dnsclient: no TXT answer for %s", name)
}

// Exchange sends q over UDP with retries (paced by Backoff, which the
// battery leaves at its immediate-retry zero value), then retries once over
// TCP when the response has TC set.
func (c *Client) Exchange(q *dnswire.Message) (*dnswire.Message, error) {
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = time.Second
	}
	var lastErr error
	for attempt := 0; attempt <= c.Retries; attempt++ {
		if attempt > 0 {
			if d := c.Backoff.Delay(attempt - 1); d > 0 {
				time.Sleep(d)
			}
		}
		resp, err := c.exchangeUDP(q, timeout)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.Header.Truncated {
			full, err := c.ExchangeTCP(q)
			if err == nil {
				return full, nil
			}
			// A cut or stalled fallback connection burns this attempt and
			// retries from the top (fresh UDP exchange, fresh TCP dial).
			lastErr = err
			continue
		}
		return resp, nil
	}
	if lastErr == nil {
		lastErr = ErrTimeout
	}
	return nil, lastErr
}

func (c *Client) exchangeUDP(q *dnswire.Message, timeout time.Duration) (*dnswire.Message, error) {
	wire, err := q.Pack()
	if err != nil {
		return nil, err
	}
	conn, err := net.DialTimeout("udp", c.Addr, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	//rootlint:allow wallclock: real-socket I/O deadline; never reached by the in-process campaign engine
	deadline := time.Now().Add(timeout)
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	if _, err := conn.Write(wire); err != nil {
		return nil, err
	}
	buf := make([]byte, 64*1024)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return nil, fmt.Errorf("%w after %s", ErrTimeout, timeout)
			}
			return nil, err
		}
		resp, err := dnswire.Unpack(buf[:n])
		if err != nil {
			continue // garbage datagram; keep waiting until deadline
		}
		if resp.Header.ID != q.Header.ID {
			continue // late or spoofed answer to another query
		}
		return resp, nil
	}
}

// ExchangeTCP sends q over TCP and reads a single response.
func (c *Client) ExchangeTCP(q *dnswire.Message) (*dnswire.Message, error) {
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = time.Second
	}
	conn, err := net.DialTimeout("tcp", c.Addr, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	//rootlint:allow wallclock: real-socket I/O deadline; never reached by the in-process campaign engine
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	if err := axfr.WriteMessage(conn, q); err != nil {
		return nil, err
	}
	resp, err := axfr.ReadMessage(conn)
	if err != nil {
		return nil, err
	}
	if resp.Header.ID != q.Header.ID {
		return nil, ErrIDMismatch
	}
	return resp, nil
}

// TransferZone performs a full AXFR of the root zone over TCP, retrying a
// cut or stalled transfer up to Retries times (each attempt is a fresh
// connection with a fresh query ID; pacing follows Backoff). A transfer
// the server refused is not retried — the refusal is the answer.
func (c *Client) TransferZone() (*zone.Zone, error) {
	var lastErr error
	for attempt := 0; attempt <= c.Retries; attempt++ {
		if attempt > 0 {
			if d := c.Backoff.Delay(attempt - 1); d > 0 {
				time.Sleep(d)
			}
		}
		z, err := c.transferOnce()
		if err == nil {
			return z, nil
		}
		lastErr = err
		if errors.Is(err, axfr.ErrRefused) {
			break
		}
	}
	return nil, lastErr
}

// transferOnce is one AXFR attempt on one connection.
func (c *Client) transferOnce() (*zone.Zone, error) {
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = time.Second
	}
	// AXFR of a large zone needs more headroom than a single query.
	conn, err := net.DialTimeout("tcp", c.Addr, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	//rootlint:allow wallclock: real-socket I/O deadline; never reached by the in-process campaign engine
	if err := conn.SetDeadline(time.Now().Add(10 * timeout)); err != nil {
		return nil, err
	}
	id := c.nextID()
	q := &dnswire.Message{
		Header: dnswire.Header{ID: id},
		Questions: []dnswire.Question{{
			Name: dnswire.Root, Type: dnswire.TypeAXFR, Class: dnswire.ClassINET,
		}},
	}
	if err := axfr.WriteMessage(conn, q); err != nil {
		return nil, err
	}
	return axfr.Receive(conn, id)
}

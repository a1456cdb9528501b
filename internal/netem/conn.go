package netem

import (
	"errors"
	"net"
	"sync"

	"repro/internal/seeded"
)

// ErrCut reports a write on a connection the link decided to sever.
var ErrCut = errors.New("netem: connection cut")

// cutConn enforces a write-side byte budget on a TCP connection the link
// decided to cut: once the budget is spent, the write that crosses it is
// truncated, the underlying connection is closed, and every later write
// fails. The peer observes a mid-stream disconnect — exactly the torn-
// transfer shape axfr.Receive classifies as ErrTruncatedTransfer.
type cutConn struct {
	net.Conn
	mu sync.Mutex
	//rootlint:guardedby mu
	budget int
	//rootlint:guardedby mu
	cut bool
}

func (c *cutConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	if c.cut {
		c.mu.Unlock()
		return 0, ErrCut
	}
	if len(b) >= c.budget {
		n := c.budget
		c.cut = true
		c.mu.Unlock()
		if n > 0 {
			_, _ = c.Conn.Write(b[:n]) // best-effort torn tail
		}
		mCuts.Inc()
		c.Conn.Close()
		return n, ErrCut
	}
	c.budget -= len(b)
	c.mu.Unlock()
	return c.Conn.Write(b)
}

// WrapConn applies the link's connection-level fates to a TCP connection.
// The cut decision is drawn once per wrapped connection from the link's
// accept counter (stable run to run when connections are accepted in a
// deterministic order), not from the peer's ephemeral address. Uncut
// connections are returned unwrapped.
func (l *Link) WrapConn(c net.Conn) net.Conn {
	if l == nil || l.prof.Cut <= 0 {
		return c
	}
	l.mu.Lock()
	idx := l.conns
	l.conns++
	l.mu.Unlock()
	h := seeded.Mix(l.prof.Seed ^ saltCut ^ idx*0x9e3779b97f4a7c15)
	if seeded.Unit(h) >= l.prof.Cut {
		return c
	}
	budget := l.prof.CutBytes
	if budget <= 0 {
		budget = 256 + int(seeded.Mix(h)%4096)
	}
	return &cutConn{Conn: c, budget: budget}
}

package dnsserver

import (
	"bytes"
	"net"
	"net/netip"

	"repro/internal/dnswire"
	"repro/internal/netem"
	"repro/internal/qlog"
)

// udpHeaderLen is the fixed DNS header size.
const udpHeaderLen = 12

// queryShape is the result of the zero-alloc fast parse of one datagram:
// enough to answer it from the compiled table without decoding the message.
// ok is false for anything the fast parser does not recognize (compression
// pointers in the question, multiple questions, trailing bytes, non-OPT
// additionals, non-QUERY opcodes), which has answerWire decode the datagram
// for the oracle instead.
type queryShape struct {
	qEnd    int // offset just past the question section
	qtype   dnswire.Type
	qclass  dnswire.Class
	hasEDNS bool
	do      bool
	adv     uint16 // client's advertised EDNS payload size
	ok      bool
}

// parseQueryShape validates the fixed header, walks the single question
// name, and decodes a trailing OPT record, all without allocating.
//
//rootlint:hotpath
func parseQueryShape(pkt []byte) (sh queryShape) {
	if len(pkt) < udpHeaderLen+5 { // header + root name + type + class
		return
	}
	flags := uint16(pkt[2])<<8 | uint16(pkt[3])
	if flags&0x8000 != 0 || (flags>>11)&0xF != 0 { // response, or not QUERY
		return
	}
	qd := int(pkt[4])<<8 | int(pkt[5])
	an := int(pkt[6])<<8 | int(pkt[7])
	ns := int(pkt[8])<<8 | int(pkt[9])
	ar := int(pkt[10])<<8 | int(pkt[11])
	if qd != 1 || an != 0 || ns != 0 || ar > 1 {
		return
	}
	off := udpHeaderLen
	nameLen := 0
	for {
		if off >= len(pkt) {
			return
		}
		l := int(pkt[off])
		if l == 0 {
			off++
			break
		}
		if l > dnswire.MaxLabelLen { // compression pointer or junk
			return
		}
		nameLen += l + 1
		if nameLen+1 > dnswire.MaxNameLen || off+1+l > len(pkt) {
			return
		}
		// A label holding a literal '.' has no presentation form here: the
		// full decoder rejects it (dnswire.ErrBadLabel), so this parser does.
		if bytes.IndexByte(pkt[off+1:off+1+l], '.') >= 0 {
			return
		}
		off += 1 + l
	}
	if off+4 > len(pkt) {
		return
	}
	sh.qtype = dnswire.Type(uint16(pkt[off])<<8 | uint16(pkt[off+1]))
	sh.qclass = dnswire.Class(uint16(pkt[off+2])<<8 | uint16(pkt[off+3]))
	off += 4
	sh.qEnd = off
	switch {
	case ar == 1:
		// OPT pseudo-record: root owner (1), TYPE (2), CLASS=payload size
		// (2), TTL with the DO bit (4), RDLEN (2), then RDATA.
		if off+11 > len(pkt) || pkt[off] != 0 {
			return
		}
		typ := dnswire.Type(uint16(pkt[off+1])<<8 | uint16(pkt[off+2]))
		if typ != dnswire.TypeOPT {
			return
		}
		sh.adv = uint16(pkt[off+3])<<8 | uint16(pkt[off+4])
		sh.do = pkt[off+7]&0x80 != 0 // bit 15 of the 32-bit TTL field
		rdlen := int(pkt[off+9])<<8 | int(pkt[off+10])
		if off+11+rdlen != len(pkt) {
			return
		}
		sh.hasEDNS = true
	case off != len(pkt): // trailing bytes: let the full decoder judge
		return
	}
	sh.ok = true
	return
}

// bucketLimit maps the effective UDP payload limit (server floor vs. client
// advertisement) onto the bucket set {512, 1232, 4096}, the sizes resolvers
// actually advertise; the compiled and oracle paths both truncate by it.
func (s *Server) bucketLimit(hasEDNS bool, adv uint16) int {
	limit := s.cfg.UDPSize
	if hasEDNS && int(adv) > limit {
		limit = int(adv)
	}
	switch {
	case limit >= 4096:
		return 4096
	case limit >= 1232:
		return 1232
	default:
		return dnswire.MaxUDPPayload
	}
}

// maxTCPMessage is the size limit where UDP's does not apply: what the
// 2-byte length prefix can frame.
const maxTCPMessage = 0xFFFF

// shardBufs is one read loop's reusable buffers (nothing is shared, nothing
// escapes).
type shardBufs struct {
	resp   []byte
	rrlKey []byte
	name   foldedName
}

// serveUDPLoop is one shard's read loop. All buffers are reused across
// iterations; a query the fast parser accepts is answered with zero
// allocations once its answer is compiled (the netip read/write paths are
// alloc-free). Every datagram is answered here, on the loop that read it,
// so a client's replies and RRL verdicts follow its own send order; the
// emulated link, when configured, admits datagrams on ingress (possibly
// dropping, corrupting, or duplicating them) before any parsing happens.
//
//rootlint:hotpath
func (s *Server) serveUDPLoop(conn *net.UDPConn, shard int) {
	defer s.wg.Done()
	readBuf := make([]byte, 64*1024)
	bufs := &shardBufs{resp: make([]byte, 0, 4096), rrlKey: make([]byte, 0, 32)}
	qlogOn := s.cfg.QLog != nil
	var flowCounts map[uint64]uint64
	if qlogOn {
		// Per-flow offered index, shard-confined: SO_REUSEPORT pins a flow
		// to one socket, so this loop sees every datagram of its flows in
		// the client's send order and the index is worker-count-invariant.
		// A netem duplicate shares its original's index (one offered
		// datagram, one index).
		//rootlint:allow hotpath: built once per read loop, before the first datagram
		flowCounts = make(map[uint64]uint64)
	}
	var pace errorPace
	for {
		n, raddr, err := conn.ReadFromUDPAddrPort(readBuf)
		if err != nil {
			if !pace.wait(s.closed) {
				return
			}
			continue
		}
		pace.reset()
		var flow uint64
		if s.link != nil || qlogOn {
			// Flow identity is the client IP alone: ephemeral ports differ
			// run to run and would break fate determinism.
			flow = netem.FlowAddr(raddr)
		}
		pkt, extra := s.link.Admit(netem.Ingress, flow, readBuf[:n])
		var fidx uint64
		if qlogOn {
			fidx = flowCounts[flow]
			flowCounts[flow]++
			if pkt == nil && extra == nil {
				s.qlogIngressDrop(readBuf[:n], flow, fidx)
			}
		}
		if pkt != nil {
			s.servePacket(conn, shard, bufs, pkt, raddr, flow, fidx)
		}
		if extra != nil {
			s.servePacket(conn, shard, bufs, extra, raddr, flow, fidx)
		}
	}
}

// servePacket serves one admitted datagram: answerWire, then the egress
// funnel.
//
//rootlint:hotpath
func (s *Server) servePacket(conn *net.UDPConn, shard int, bufs *shardBufs, pkt []byte, raddr netip.AddrPort, flow, fidx uint64) {
	sh := parseQueryShape(pkt)
	var ev qev
	if sh.ok && s.cfg.QLog != nil {
		ev.key = qlog.Key(pkt[:sh.qEnd])
		ev.flow, ev.fidx = flow, fidx
		ev.sampled = s.cfg.QLog.Sampled(ev.key)
	}
	bufs.resp = s.answerWire(shard, &bufs.name, bufs.resp[:0], pkt, sh, false)
	if len(bufs.resp) == 0 {
		return
	}
	s.respond(conn, shard, bufs, pkt, sh, raddr, flow, ev)
}

// respond is the single egress funnel for UDP responses: the RRL verdict
// (send / drop / answer with a TC slip) is taken here from the raw response
// bytes, then the emulated link admits whatever survives. Both the compiled
// and the oracle path converge on this method, on the read loop that owns
// the client's flow, so serve/rrl/decide has exactly one evaluation site and
// verdict order per client follows the client's own arrival order.
//
//rootlint:hotpath
func (s *Server) respond(conn *net.UDPConn, shard int, bufs *shardBufs, pkt []byte, sh queryShape, raddr netip.AddrPort, flow uint64, ev qev) {
	verdict := uint64(qVerdictNone)
	if s.rrl != nil {
		switch s.rrl.decide(bufs.rrlKey, raddr.Addr(), rrlClassify(bufs.resp)) {
		case rrlDrop:
			if ev.sampled {
				s.emitServe(ev, pkt, sh, qFateOK, qVerdictDrop,
					respTC(bufs.resp), uint64(rrlClassify(bufs.resp)), respRcode(bufs.resp))
			}
			return
		case rrlSlip:
			if !sh.ok {
				// No fast-parsed question to stitch a stub from; the
				// full decoder accepted something the stub builder can't
				// reproduce byte-exactly, so suppress entirely.
				return
			}
			bufs.resp = appendSlipStub(bufs.resp, pkt, sh.qEnd)
			verdict = qVerdictSlip
		default:
			verdict = qVerdictSend
		}
	}
	if ev.sampled {
		s.emitServe(ev, pkt, sh, qFateOK, verdict,
			respTC(bufs.resp), uint64(rrlClassify(bufs.resp)), respRcode(bufs.resp))
	}
	first, second := s.link.Admit(netem.Egress, flow, bufs.resp)
	if first != nil {
		_, _ = conn.WriteToUDPAddrPort(first, raddr)
	}
	if second != nil {
		_, _ = conn.WriteToUDPAddrPort(second, raddr)
	}
}

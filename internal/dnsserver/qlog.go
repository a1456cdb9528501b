package dnsserver

import "repro/internal/qlog"

// evServeQuery is the server-side flight-recorder event: one record per
// sampled query at its terminal point in the UDP pipeline. Claimed once, like
// a telemetry metric; the qlogfield analyzer cross-checks the field list
// against the qlog registry.
var evServeQuery = qlog.NewEvent("serve/query",
	"flow", "fidx", "fate", "verdict", "cache", "bucket", "edns", "do",
	"tc", "class", "rcode")

// serve/query enum values, in registry order. The rrl verdict and class
// enums deliberately reuse the rrlVerdict/rrlClass numbering shifted by the
// extra "none"/"ok" zero value where the registry has one.
const (
	qFateOK   = 0
	qFateDrop = 1

	qVerdictNone = 0
	qVerdictSend = 1
	qVerdictDrop = 2
	qVerdictSlip = 3
)

// qev is one query's flight-recorder context, threaded from the read loop to
// the terminal point (respond or ingress drop). The zero value means "not
// sampled", so unrecorded queries carry it for free.
type qev struct {
	sampled bool
	key     uint64
	flow    uint64
	fidx    uint64
}

// emitServe records the terminal serve/query event for one sampled query.
// Every terminal point of the UDP pipeline funnels through here, so a sampled
// query emits exactly one event. class/rcode/tc describe the response bytes
// the verdict left behind: the wire response for send, the suppressed
// response for an RRL drop, the TC stub for a slip, zero when no response was
// ever built (ingress drop). Only fast-parsed queries are recorded (the key
// hashes their question), so the cache field, "answered on the compiled
// path", is set for every query the link let in.
func (s *Server) emitServe(ev qev, pkt []byte, sh queryShape, fate, verdict, tc, class, rcode uint64) {
	var bucket uint64
	switch s.bucketLimit(sh.hasEDNS, sh.adv) {
	case 4096:
		bucket = 2
	case 1232:
		bucket = 1
	}
	var edns, do, compiled uint64
	if sh.hasEDNS {
		edns = 1
	}
	if sh.do {
		do = 1
	}
	if fate == qFateOK {
		compiled = 1
	}
	s.cfg.QLog.Emit(evServeQuery, ev.key, pkt[:sh.qEnd],
		ev.flow, ev.fidx, fate, verdict, compiled, bucket, edns, do, tc, class, rcode)
}

// qlogIngressDrop records a sampled query the emulated link swallowed on
// ingress. Loss fires before corruption in the link, so the dropped bytes are
// what the client sent and the key matches the client's record of the same
// query.
func (s *Server) qlogIngressDrop(pkt []byte, flow, fidx uint64) {
	sh := parseQueryShape(pkt)
	if !sh.ok {
		return
	}
	key := qlog.Key(pkt[:sh.qEnd])
	if !s.cfg.QLog.Sampled(key) {
		return
	}
	s.emitServe(qev{key: key, flow: flow, fidx: fidx}, pkt, sh,
		qFateDrop, qVerdictNone, 0, 0, 0)
}

// respTC reads the response's TC bit for the flight recorder.
func respTC(resp []byte) uint64 {
	if len(resp) > 2 && resp[2]&0x02 != 0 {
		return 1
	}
	return 0
}

// respRcode reads the response's RCODE for the flight recorder.
func respRcode(resp []byte) uint64 {
	if len(resp) > 3 {
		return uint64(resp[3] & 0x0F)
	}
	return 0
}

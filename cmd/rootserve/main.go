// Command rootserve serves a synthesized, signed root zone on real UDP and
// TCP sockets: referrals, priming, DNSSEC answers, CHAOS identity, and AXFR.
// It prints the trust anchor DS record so clients (rootdig, zonemdcheck) can
// validate what they receive.
//
// Usage:
//
//	rootserve [-addr 127.0.0.1:5353] [-tlds 120] [-hostname id] [-no-axfr]
//	          [-serve-workers N]
//	          [-netem loss=0.1,seed=7] [-rrl rate=0.5,slip=2]
//	          [-qlog flight.qlog] [-qlog-sample every=64,seed=7]
//	          [-tcp-timeout 2m] [-max-tcp-conns 64]
//	          [-metrics out.json] [-telemetry-addr host:port]
//
// -qlog records one flight-recorder event per sampled query (decode with
// `rootanalyze -qlog`); a panic dumps the in-memory black-box ring to
// <path>.blackbox. Give the client the same -qlog-sample spec so
// `rootanalyze -qlog join` can pair both sides' records.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/dnssec"
	"repro/internal/dnsserver"
	"repro/internal/netem"
	"repro/internal/qlog"
	"repro/internal/telemetry"
	"repro/internal/zone"
	"repro/internal/zonemd"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:5353", "listen address (UDP and TCP)")
	tlds := flag.Int("tlds", 120, "number of TLD delegations to synthesize")
	hostname := flag.String("hostname", "local1.root.example", "CHAOS hostname.bind/id.server answer")
	version := flag.String("version", "repro-rootserve-1.0", "CHAOS version.bind answer")
	noAXFR := flag.Bool("no-axfr", false, "refuse zone transfers")
	useRSA := flag.Bool("rsa", false, "sign with RSA/SHA-256 (algorithm 8, like the real root) instead of ECDSA-P256")
	serveWorkers := flag.Int("serve-workers", 0, "UDP read loops (SO_REUSEPORT sockets on linux); 0 = GOMAXPROCS")
	netemSpec := flag.String("netem", "", "adverse-network profile, e.g. loss=0.1,corrupt=0.05,seed=7 (see internal/netem)")
	rrlSpec := flag.String("rrl", "", "response-rate-limiting, e.g. rate=0.5,burst=8,slip=2,seed=7 (empty = off)")
	qlogPath := flag.String("qlog", "", "record a per-query flight log to this file (empty = off)")
	qlogSample := flag.String("qlog-sample", "", "flight-log sampler, e.g. every=64,seed=7 (empty = every query)")
	tcpTimeout := flag.Duration("tcp-timeout", 0, "per-connection TCP idle deadline; 0 = 2m default, negative = no deadline")
	maxTCP := flag.Int("max-tcp-conns", 0, "concurrent TCP connection cap; 0 = 64 default, negative = unlimited")
	telemetry.RegisterFlags()
	flag.Parse()

	netemProf, err := netem.ParseProfile(*netemSpec)
	if err != nil {
		fatal(err)
	}
	rrlCfg, err := dnsserver.ParseRRL(*rrlSpec)
	if err != nil {
		fatal(err)
	}

	stopTel, err := telemetry.Start()
	if err != nil {
		fatal(err)
	}
	defer stopTel()

	var rec *qlog.Recorder
	if *qlogPath != "" {
		sampler, err := qlog.ParseSampler(*qlogSample)
		if err != nil {
			fatal(err)
		}
		qf, err := os.Create(*qlogPath)
		if err != nil {
			fatal(err)
		}
		defer qf.Close()
		if rec, err = qlog.New(qf, sampler, *qlogPath+".blackbox"); err != nil {
			fatal(err)
		}
		defer rec.Close()
		defer qlog.DumpOnPanic(*qlogPath + ".blackbox")
	}

	var signer *dnssec.Signer
	if *useRSA {
		signer, err = dnssec.NewRSASigner(nil)
	} else {
		signer, err = dnssec.NewSigner(nil)
	}
	if err != nil {
		fatal(err)
	}
	cfg := zone.DefaultRootConfig()
	cfg.TLDCount = *tlds
	now := time.Now().UTC()
	cfg.Serial = zone.SerialForDate(now.Year(), int(now.Month()), now.Day(), 0)
	signed, err := signer.Sign(zone.SynthesizeRoot(cfg), now)
	if err != nil {
		fatal(err)
	}
	z, err := zonemd.AttachAndSign(signed, signer, zonemd.StateVerifiable, now)
	if err != nil {
		fatal(err)
	}

	srv, err := dnsserver.New(dnsserver.Config{
		Zone:         z,
		ExtraZones:   []*zone.Zone{zone.SynthesizeRootServersNet(cfg.Serial, false)},
		Identity:     dnsserver.Identity{Hostname: *hostname, Version: *version},
		AllowAXFR:    !*noAXFR,
		ServeWorkers: *serveWorkers,
		Netem:        netemProf,
		RRL:          rrlCfg,
		QLog:         rec,
		TCPTimeout:   *tcpTimeout,
		MaxTCPConns:  *maxTCP,
	})
	if err != nil {
		fatal(err)
	}
	bound, err := srv.Start(*addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("serving root zone serial %d (%d records) on %s (udp+tcp)\n",
		z.Serial(), len(z.Records), bound)
	fmt.Printf("trust anchor: %s\n", signer.TrustAnchor())
	if *netemSpec != "" {
		fmt.Printf("netem: %s\n", netemProf)
	}
	if rrlCfg.Rate > 0 {
		fmt.Printf("rrl: %s\n", *rrlSpec)
	}
	if rec != nil {
		fmt.Printf("qlog: recording to %s\n", *qlogPath)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	_ = srv.Close()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "rootserve: %v\n", err)
	os.Exit(1)
}

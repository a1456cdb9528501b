// Command rootserve serves a synthesized, signed root zone on real UDP and
// TCP sockets: referrals, priming, DNSSEC answers, CHAOS identity, and AXFR.
// It prints the trust anchor DS record so clients (rootdig, zonemdcheck) can
// validate what they receive.
//
//	rootserve [-addr 127.0.0.1:5353] [-netem loss=0.1,seed=7] [-rrl rate=0.5,slip=2] [flags]
//
// It serves until interrupted (SIGINT), then writes what -metrics and -qlog
// asked for. -h lists the flags; the spec grammar of -netem and -rrl and the
// exit codes are README.md's "Front door".
//
// -qlog records one flight-recorder event per sampled query (decode with
// `rootanalyze -qlog`); a panic dumps the in-memory black-box ring to
// <path>.blackbox. Give the client the same -qlog-sample spec so
// `rootanalyze -qlog join` can pair both sides' records.
package main

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"repro/internal/cli"
	"repro/internal/dnssec"
	"repro/internal/dnsserver"
	"repro/internal/netem"
	"repro/internal/qlog"
	"repro/internal/telemetry"
	"repro/internal/zone"
	"repro/internal/zonemd"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("rootserve", stderr)
	addr := fs.String("addr", "127.0.0.1:5353", "listen address (UDP and TCP)")
	tlds := fs.Int("tlds", 120, "number of TLD delegations to synthesize")
	hostname := fs.String("hostname", "local1.root.example", "CHAOS hostname.bind/id.server answer")
	version := fs.String("version", "repro-rootserve-1.0", "CHAOS version.bind answer")
	noAXFR := fs.Bool("no-axfr", false, "refuse zone transfers")
	useRSA := fs.Bool("rsa", false, "sign with RSA/SHA-256 (algorithm 8, like the real root) instead of ECDSA-P256")
	serveWorkers := fs.Int("serve-workers", 0, "UDP read loops (SO_REUSEPORT sockets on linux); 0 = GOMAXPROCS")
	var netemProf netem.Profile
	fs.Var(&netemProf, "netem", "adverse-network profile `spec`, e.g. loss=0.1,corrupt=0.05,seed=7 (see internal/netem)")
	var rrlCfg dnsserver.RRLConfig
	fs.Var(&rrlCfg, "rrl", "response-rate-limiting `spec`, e.g. rate=0.5,burst=8,slip=2,seed=7 (empty = off)")
	flight := qlog.RegisterFlags(fs)
	tcpTimeout := fs.Duration("tcp-timeout", 0, "per-connection TCP idle deadline; 0 = 2m default, negative = no deadline")
	maxTCP := fs.Int("max-tcp-conns", 0, "concurrent TCP connection cap; 0 = 64 default, negative = unlimited")
	startTel := telemetry.RegisterFlags(fs)
	if code, done := cli.Parse(fs, args); done {
		return code
	}

	stopTel, err := startTel()
	if err != nil {
		return cli.Fail(fs, err)
	}
	defer stopTel()
	rec, err := flight.Open(false)
	if err != nil {
		return cli.Fail(fs, err)
	}
	defer rec.Close()
	defer qlog.DumpOnPanic(flight.Blackbox())

	var signer *dnssec.Signer
	if *useRSA {
		signer, err = dnssec.NewRSASigner(nil)
	} else {
		signer, err = dnssec.NewSigner(nil)
	}
	if err != nil {
		return cli.Fail(fs, err)
	}
	cfg := zone.DefaultRootConfig()
	cfg.TLDCount = *tlds
	now := time.Now().UTC()
	cfg.Serial = zone.SerialForDate(now.Year(), int(now.Month()), now.Day(), 0)
	signed, err := signer.Sign(zone.SynthesizeRoot(cfg), now)
	if err != nil {
		return cli.Fail(fs, err)
	}
	z, err := zonemd.AttachAndSign(signed, signer, zonemd.StateVerifiable, now)
	if err != nil {
		return cli.Fail(fs, err)
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
		return cli.Fail(fs, err)
	}
	// Ask for the signal before saying the server is up: whoever reads the
	// bind line may send it at once.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	defer signal.Stop(sig)
	bound, err := srv.Start(*addr)
	if err != nil {
		return cli.Fail(fs, err)
	}
	fmt.Fprintf(stdout, "serving root zone serial %d (%d records) on %s (udp+tcp)\n",
		z.Serial(), len(z.Records), bound)
	fmt.Fprintf(stdout, "trust anchor: %s\n", signer.TrustAnchor())
	if netemProf != (netem.Profile{}) {
		fmt.Fprintf(stdout, "netem: %s\n", netemProf)
	}
	if rrlCfg.Rate > 0 {
		fmt.Fprintf(stdout, "rrl: %s\n", rrlCfg)
	}
	if rec != nil {
		fmt.Fprintf(stdout, "qlog: recording to %s\n", flight.Path)
	}

	<-sig
	_ = srv.Close()
	return cli.ExitOK
}

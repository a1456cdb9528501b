// Command zonemdcheck validates a root-zone copy the way the paper's
// ldns-based pipeline does: it checks the ZONEMD digest and, when a trust
// anchor DS record is supplied, fully validates all RRSIGs. The zone can
// come from a master-format file or from a live AXFR.
//
// Usage:
//
//	zonemdcheck -file root.zone [-anchor ". 172800 IN DS ..."] [-at 2023-12-10T00:00:00Z]
//	zonemdcheck -axfr 127.0.0.1:5353 [-anchor ...]
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/dnsclient"
	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/zone"
	"repro/internal/zonemd"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("zonemdcheck", stderr)
	file := fs.String("file", "", "master-format zone file to validate")
	axfrAddr := fs.String("axfr", "", "fetch the zone via AXFR from this address instead")
	var ds *dnswire.DSRecord
	fs.Func("anchor", "trust anchor `DS record` (master-file format) for DNSSEC validation", func(s string) error {
		rr, err := zone.ParseRR(s)
		if err != nil {
			return err
		}
		rec, ok := rr.Data.(dnswire.DSRecord)
		if !ok {
			return fmt.Errorf("a %s record, want DS", rr.Type())
		}
		ds = &rec
		return nil
	})
	now := time.Now().UTC()
	fs.Func("at", "validation `time` (RFC 3339; default now)", func(s string) (err error) {
		now, err = time.Parse(time.RFC3339, s)
		return err
	})
	if code, done := cli.Parse(fs, args); done {
		return code
	}

	var z *zone.Zone
	var err error
	switch {
	case *file != "":
		var f *os.File
		if f, err = os.Open(*file); err == nil {
			defer f.Close()
			z, err = zone.Parse(f, dnswire.Root)
		}
	case *axfrAddr != "":
		z, err = dnsclient.New(*axfrAddr).TransferZone()
	default:
		return cli.Usage(fs, "need -file or -axfr")
	}
	if err != nil {
		return cli.Fail(fs, err)
	}

	fmt.Fprintf(stdout, "zone: serial %d, %d records\n", z.Serial(), len(z.Records))
	if err := zonemd.Verify(z); err != nil {
		fmt.Fprintf(stdout, "ZONEMD: FAIL: %v\n", err)
	} else {
		fmt.Fprintln(stdout, "ZONEMD: ok")
	}
	if ds != nil {
		if err := dnssec.ValidateZone(z, *ds, now); err != nil {
			fmt.Fprintf(stdout, "DNSSEC: FAIL: %v\n", err)
			return cli.ExitFailed
		}
		fmt.Fprintln(stdout, "DNSSEC: ok")
	}
	return cli.ExitOK
}

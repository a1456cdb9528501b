// Command rootdig is a minimal dig: it queries a DNS server (by default the
// local rootserve instance) and prints the response in dig-like format.
//
// Usage:
//
//	rootdig [-server 127.0.0.1:5353] [-dnssec] [name] [type]
//	rootdig -chaos hostname.bind
//	rootdig -axfr
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/dnsclient"
	"repro/internal/dnswire"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("rootdig", stderr)
	server := fs.String("server", "127.0.0.1:5353", "server address")
	dnssec := fs.Bool("dnssec", false, "set the DO bit (EDNS0, 4096 bytes)")
	chaos := fs.String("chaos", "", "CH TXT identity query (hostname.bind, id.server, ...)")
	axfr := fs.Bool("axfr", false, "request a full zone transfer")
	if code, done := cli.Parse(fs, args); done {
		return code
	}

	c := dnsclient.New(*server)
	if *dnssec {
		c.SetEDNSSize(4096)
	}

	switch {
	case *chaos != "":
		txt, err := c.QueryChaosTXT(dnswire.MustName(*chaos))
		if err != nil {
			return cli.Fail(fs, err)
		}
		fmt.Fprintf(stdout, "%s. CH TXT %q\n", *chaos, txt)
	case *axfr:
		z, err := c.TransferZone()
		if err != nil {
			return cli.Fail(fs, err)
		}
		if err := z.Canonicalize().Print(stdout); err != nil {
			return cli.Fail(fs, err)
		}
	default:
		name, typ := ".", "NS"
		if fs.NArg() > 0 {
			name = fs.Arg(0)
		}
		if fs.NArg() > 1 {
			typ = fs.Arg(1)
		}
		qname, err := dnswire.NewName(name)
		if err != nil {
			return cli.Usage(fs, "%v", err)
		}
		qtype, err := dnswire.TypeFromString(typ)
		if err != nil {
			return cli.Usage(fs, "%v", err)
		}
		resp, err := c.Query(qname, qtype)
		if err != nil {
			return cli.Fail(fs, err)
		}
		printResponse(stdout, resp)
	}
	return cli.ExitOK
}

func printResponse(w io.Writer, m *dnswire.Message) {
	fmt.Fprintf(w, ";; status: %s, id: %d, aa: %v\n",
		m.Header.Rcode, m.Header.ID, m.Header.Authoritative)
	fmt.Fprintln(w, ";; QUESTION")
	for _, q := range m.Questions {
		fmt.Fprintf(w, ";%s\n", q)
	}
	sections := []struct {
		label string
		rrs   []dnswire.RR
	}{{"ANSWER", m.Answers}, {"AUTHORITY", m.Authority}, {"ADDITIONAL", m.Additional}}
	for _, sec := range sections {
		if len(sec.rrs) == 0 {
			continue
		}
		fmt.Fprintf(w, ";; %s\n", sec.label)
		for _, rr := range sec.rrs {
			if rr.Type() == dnswire.TypeOPT {
				continue
			}
			fmt.Fprintln(w, rr)
		}
	}
}

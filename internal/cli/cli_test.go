package cli_test

import (
	"bytes"
	"errors"
	"flag"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/dnsserver"
	"repro/internal/failpoint"
	"repro/internal/netem"
	"repro/internal/qlog"
)

func TestWalk(t *testing.T) {
	terms := func(s string) (got []string, err error) {
		err = cli.Walk(s, func(k, v string) error {
			got = append(got, k+"→"+v)
			return nil
		})
		return got, err
	}
	for spec, want := range map[string]string{
		"":                     "",
		" \t":                  "",
		"a=1":                  "a→1",
		" a=1 , b=x=y ,c= ":    "a→1 b→x=y c→",
		"site/x=kill@3,seed=7": "site/x→kill@3 seed→7",
	} {
		got, err := terms(spec)
		if err != nil || strings.Join(got, " ") != want {
			t.Errorf("Walk(%q) = %q, %v; want %q", spec, got, err, want)
		}
	}
	for _, bad := range []string{"a", "=1", "a=1,", ",a=1", "a=1,,b=2", "a=1, ,b=2"} {
		if got, err := terms(bad); err == nil {
			t.Errorf("Walk(%q) accepted: %q", bad, got)
		}
	}
	// The first refusal stops the walk and names its term.
	refusal := errors.New("no")
	seen := 0
	err := cli.Walk("a=1,b=2,c=3", func(k, _ string) error {
		if seen++; k == "b" {
			return refusal
		}
		return nil
	})
	if !errors.Is(err, refusal) || seen != 2 || !strings.Contains(err.Error(), `"b=2"`) {
		t.Errorf("refused walk: %v after %d terms", err, seen)
	}
}

// The front-door plumbing: -h is not a failure, a refused command line is
// usage, and both report on the stderr the run was given.
func TestParseAndExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		done bool
		says string
	}{
		{[]string{"-n", "3", "rest"}, cli.ExitOK, false, ""},
		{[]string{"-h"}, cli.ExitOK, true, "Usage of tool:"},
		{[]string{"-n", "three"}, cli.ExitUsage, true, "invalid value"},
		{[]string{"-m"}, cli.ExitUsage, true, "flag provided but not defined"},
	} {
		var stderr bytes.Buffer
		fs := cli.NewFlagSet("tool", &stderr)
		fs.Int("n", 0, "a number")
		code, done := cli.Parse(fs, tc.args)
		if code != tc.code || done != tc.done || !strings.Contains(stderr.String(), tc.says) {
			t.Errorf("Parse(%q) = %d, %v saying %q; want %d, %v saying %q", tc.args, code, done, &stderr, tc.code, tc.done, tc.says)
		}
	}
	var stderr bytes.Buffer
	fs := cli.NewFlagSet("tool", &stderr)
	if code := cli.Fail(fs, errors.New("disk full")); code != cli.ExitFailed || stderr.String() != "tool: disk full\n" {
		t.Errorf("Fail = %d saying %q", code, &stderr)
	}
	stderr.Reset()
	if code := cli.Usage(fs, "need %s", "-file"); code != cli.ExitUsage || stderr.String() != "tool: need -file\n" {
		t.Errorf("Usage = %d saying %q", code, &stderr)
	}
}

// FuzzSpec throws one string at the walker and at everything that parses a
// flag with it. Nothing may panic; terms the walker yields walk to themselves;
// and a spec a flag.Value accepts renders (String) to a spec that sets the
// same value — for netem.Profile, what `netem:` lines and logs rely on.
func FuzzSpec(f *testing.F) {
	for _, seed := range []string{
		"", " ", "loss=0.1,dup=0.01,reorder=0.05,corrupt=0.01,blackhole=0.3,cut=0.5,cutbytes=512,delay=1ms,jitter=500us,seed=99",
		"rate=0.5,burst=50,slip=2,prefix4=28,prefix6=48,tablebytes=4096,seed=3", "every=64,seed=7",
		"campaign/tick=kill@5, measure/worker/probe=panic", "kind=serve/query,class=junk,rcode=3",
		"loss=NaN", "delay=-1.5h", "a=1,,b=2", "=", "every=18446744073709551616", "rate=1e-320",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var terms []string
		if err := cli.Walk(s, func(k, v string) error { terms = append(terms, k+"="+v); return nil }); err == nil {
			var again []string
			err := cli.Walk(strings.Join(terms, ","), func(k, v string) error { again = append(again, k+"="+v); return nil })
			if err != nil || strings.Join(again, ",") != strings.Join(terms, ",") {
				t.Fatalf("Walk(%q) yields %q, which walks to %q (%v)", s, terms, again, err)
			}
		}
		if failpoint.Enable(s) == nil {
			failpoint.Disable()
		}
		var p, p2 netem.Profile
		roundTrip(t, s, &p, &p2, func() bool { return p == p2 })
		var c, c2 dnsserver.RRLConfig
		roundTrip(t, s, &c, &c2, func() bool { return c == c2 })
		var q, q2 qlog.Sampler
		roundTrip(t, s, &q, &q2, func() bool { return q == q2 })
	})
}

// roundTrip sets v from s and, if that is accepted, v2 from v's rendering.
func roundTrip(t *testing.T, s string, v, v2 flag.Value, same func() bool) {
	t.Helper()
	if v.Set(s) != nil {
		return
	}
	if err := v2.Set(v.String()); err != nil || !same() || v2.String() != v.String() {
		t.Fatalf("%T: Set(%q) renders %q, which sets %q (%v)", v, s, v, v2, err)
	}
}

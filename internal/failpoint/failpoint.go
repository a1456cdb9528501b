// Package failpoint provides deterministic fault injection at named program
// sites, the testing counterpart of the campaign's crash-safety layer. A site
// is a string like "measure/worker/probe"; production code calls Eval at the
// site and normally pays one atomic load (no allocation, no branch taken).
// Tests and the CLIs' -chaos flag activate a plan that makes specific hits of
// specific sites panic, return an injected error, or simulate a process kill.
//
// Spec grammar (comma-separated key=value terms, see internal/cli):
//
//	site=action[@N]
//
// where action is one of panic, error, kill and N (default 1) is the 1-based
// hit count at which the site fires. Each activated site fires exactly once;
// determinism therefore only depends on the site's hit ordering, which is
// serial for all kill sites (tick loop, checkpoint, dataset seal).
package failpoint

import (
	"errors"
	"flag"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/cli"
)

// Sentinel errors surfaced by Eval.
var (
	// ErrInjected marks an injected per-operation error; supervised call
	// sites classify and count it like a real transient failure.
	ErrInjected = errors.New("failpoint: injected error")
	// ErrKilled simulates a process kill at the site: callers must unwind
	// without running any cleanup that a real SIGKILL would skip
	// (sealing, checkpointing, closing writers).
	ErrKilled = errors.New("failpoint: killed")
)

// Panic is the value thrown by a panic-action site, so supervision code can
// tell injected panics from real ones in test assertions.
type Panic struct{ Site string }

func (p Panic) String() string { return "failpoint panic at " + p.Site }

type action int

const (
	actPanic action = iota
	actError
	actKill
)

type site struct {
	//rootlint:immutable-after-start
	act action
	//rootlint:immutable-after-start
	at    int64
	hits  atomic.Int64
	fired atomic.Bool
}

type plan struct{ sites map[string]*site }

// active holds the current plan; nil when chaos mode is off.
var active atomic.Pointer[plan]

// newSite parses one action[@N] value. Sites are fully built before the plan
// is published, so act and at never change after construction.
func newSite(value string) (*site, error) {
	actName, atStr, hasAt := strings.Cut(value, "@")
	s := &site{at: 1}
	switch actName {
	case "panic":
		s.act = actPanic
	case "error":
		s.act = actError
	case "kill":
		s.act = actKill
	default:
		return nil, fmt.Errorf("unknown action %q (want panic, error, kill)", actName)
	}
	if hasAt {
		n, err := strconv.ParseInt(atStr, 10, 64)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad hit count %q", atStr)
		}
		s.at = n
	}
	return s, nil
}

// Enable parses a spec (site=action[@N] terms, as internal/cli walks them)
// and activates it, replacing any previous plan. A site that is not in Sites
// is refused, as is a kill on a site that is not kill-capable: neither could
// ever fire as asked, and a chaos run that armed nothing looks like a run
// that survived.
func Enable(sp string) error {
	p := &plan{sites: make(map[string]*site)}
	err := cli.Walk(sp, func(name, value string) error {
		s, err := newSite(value)
		if err != nil {
			return err
		}
		i := slices.IndexFunc(Sites, func(r Site) bool { return r.Name == name })
		if i < 0 {
			return fmt.Errorf("no site %q (registered: %s)", name, siteNames())
		}
		if s.act == actKill && !Sites[i].Kill {
			return fmt.Errorf("site %q is not kill-capable: its errors are absorbed, not unwound", name)
		}
		p.sites[name] = s
		return nil
	})
	if err != nil {
		return fmt.Errorf("failpoint: %w", err)
	}
	active.Store(p)
	return nil
}

// RegisterFlag declares -chaos on fs: the spec is checked and armed as the
// flag is parsed, so a site that could never fire is a usage error.
func RegisterFlag(fs *flag.FlagSet) {
	fs.Func("chaos", "failpoint `spec` site=action[@N][,...] with action panic|error|kill, e.g. campaign/tick=kill@5", Enable)
}

// siteNames lists the registered sites for Enable's refusal.
func siteNames() string {
	names := make([]string, len(Sites))
	for i, r := range Sites {
		names[i] = r.Name
	}
	return strings.Join(names, ", ")
}

// Disable deactivates all failpoints.
//
//rootlint:allow deadcode: the hook measure/chaos_test.go and the dataset, dnsserver and netem tests disarm a plan with
func Disable() { active.Store(nil) }

// Eval evaluates the named site against the active plan. It returns nil when
// chaos mode is off or the site is not armed; otherwise, on the configured
// hit it panics (action panic), returns an ErrInjected-wrapped error (action
// error), or returns ErrKilled (action kill).
func Eval(name string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	s, ok := p.sites[name]
	if !ok {
		return nil
	}
	if s.hits.Add(1) != s.at || !s.fired.CompareAndSwap(false, true) {
		return nil
	}
	mFired.Inc()
	switch s.act {
	case actPanic:
		panic(Panic{Site: name})
	case actError:
		return fmt.Errorf("%w at %s", ErrInjected, name)
	default:
		mKills.Inc()
		return fmt.Errorf("%w at %s", ErrKilled, name)
	}
}

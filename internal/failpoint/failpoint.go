// Package failpoint provides deterministic fault injection at named program
// sites, the testing counterpart of the campaign's crash-safety layer. A site
// is a string like "measure/worker/probe"; production code calls Eval at the
// site and normally pays one atomic load (no allocation, no branch taken).
// Tests and the CLIs' -chaos flag activate a plan that makes specific hits of
// specific sites panic, return an injected error, or simulate a process kill.
//
// Spec grammar (comma-separated):
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
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
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

// newSite parses one action[@N] clause; part is the full clause for error
// text. Sites are fully built before the plan is published, so act and at
// never change after construction.
func newSite(actName, atStr string, hasAt bool, part string) (*site, error) {
	s := &site{at: 1}
	switch actName {
	case "panic":
		s.act = actPanic
	case "error":
		s.act = actError
	case "kill":
		s.act = actKill
	default:
		return nil, fmt.Errorf("failpoint: unknown action %q in %q", actName, part)
	}
	if hasAt {
		n, err := strconv.ParseInt(atStr, 10, 64)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("failpoint: bad hit count in %q", part)
		}
		s.at = n
	}
	return s, nil
}

// Enable parses spec and activates it, replacing any previous plan. A site
// that is not in Sites is refused, as is a kill on a site that is not
// kill-capable: neither could ever fire as asked, and a chaos run that armed
// nothing looks like a run that survived.
func Enable(spec string) error {
	p := &plan{sites: make(map[string]*site)}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return fmt.Errorf("failpoint: bad spec %q (want site=action[@N])", part)
		}
		actName, atStr, hasAt := strings.Cut(rest, "@")
		s, err := newSite(actName, atStr, hasAt, part)
		if err != nil {
			return err
		}
		i := slices.IndexFunc(Sites, func(r Site) bool { return r.Name == name })
		if i < 0 {
			return fmt.Errorf("failpoint: no site %q in %q (registered: %s)", name, part, siteNames())
		}
		if s.act == actKill && !Sites[i].Kill {
			return fmt.Errorf("failpoint: site %q is not kill-capable in %q: its errors are absorbed, not unwound", name, part)
		}
		p.sites[name] = s
	}
	active.Store(p)
	return nil
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

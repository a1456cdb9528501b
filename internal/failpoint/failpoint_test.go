package failpoint

import (
	"errors"
	"strings"
	"testing"
)

func TestDisabledIsNoop(t *testing.T) {
	Disable()
	if active.Load() != nil {
		t.Fatal("active with no plan")
	}
	for i := 0; i < 100; i++ {
		if err := Eval("any/site"); err != nil {
			t.Fatalf("disabled Eval returned %v", err)
		}
	}
}

func TestErrorFiresAtNthHitOnce(t *testing.T) {
	defer Disable()
	if err := Enable("netem/inject=error@3"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		err := Eval("netem/inject")
		if i == 3 {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("hit %d: err = %v, want ErrInjected", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("hit %d: unexpected %v", i, err)
		}
	}
	if err := Eval("other/site"); err != nil {
		t.Fatalf("unarmed site fired: %v", err)
	}
}

func TestKillAction(t *testing.T) {
	defer Disable()
	if err := Enable("campaign/tick=kill"); err != nil {
		t.Fatal(err)
	}
	if err := Eval("campaign/tick"); !errors.Is(err, ErrKilled) {
		t.Fatalf("err = %v, want ErrKilled", err)
	}
	if err := Eval("campaign/tick"); err != nil {
		t.Fatal("kill site fired twice")
	}
}

func TestPanicAction(t *testing.T) {
	defer Disable()
	if err := Enable("measure/worker/probe=panic@1, measure/worker/transfer=error@2"); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			r := recover()
			if fp, ok := r.(Panic); !ok || fp.Site != "measure/worker/probe" {
				t.Fatalf("recovered %v, want failpoint.Panic{measure/worker/probe}", r)
			}
		}()
		Eval("measure/worker/probe")
		t.Fatal("panic site did not panic")
	}()
	// The second spec entry is independently armed.
	if err := Eval("measure/worker/transfer"); err != nil {
		t.Fatal("second site fired early")
	}
	if err := Eval("measure/worker/transfer"); !errors.Is(err, ErrInjected) {
		t.Fatal("second site did not fire at hit 2")
	}
}

func TestBadSpecs(t *testing.T) {
	defer Disable()
	for _, spec := range []string{"noequals", "campaign/tick=explode", "campaign/tick=error@0", "campaign/tick=error@x", "=error"} {
		if err := Enable(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

// A misspelt site used to arm nothing: the chaos run then finished like a
// healthy one.
func TestEnableRefusesUnregisteredSite(t *testing.T) {
	defer Disable()
	err := Enable("campaign/tik=kill@5")
	if err == nil {
		t.Fatal("unregistered site accepted")
	}
	for _, want := range []string{`"campaign/tik"`, "campaign/tick", "serve/rrl/decide"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not name %s", err, want)
		}
	}
	if active.Load() != nil {
		t.Error("a refused spec left a plan armed")
	}
}

// A kill on a supervised site used to be absorbed as one degraded probe.
func TestEnableRefusesKillOnAbsorbedSite(t *testing.T) {
	defer Disable()
	err := Enable("measure/worker/probe=kill")
	if err == nil || !strings.Contains(err.Error(), `"measure/worker/probe"`) {
		t.Fatalf("err = %v, want a refusal naming the site", err)
	}
	if err := Enable("measure/worker/probe=error"); err != nil {
		t.Errorf("error action on the same site refused: %v", err)
	}
}

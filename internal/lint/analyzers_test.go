package lint_test

import (
	"testing"

	"repro/internal/lint"
)

// Each fixture pairs a failing package (a, every violation form with a want
// expectation) with a passing package (b, near-miss idioms that must stay
// silent); the directive fixture carries both in one file.

func TestDetrand(t *testing.T) { runFixture(t, lint.Detrand, "detrand") }

func TestHotpath(t *testing.T) { runFixture(t, lint.Hotpath, "hotpath") }

func TestOrderedmap(t *testing.T) { runFixture(t, lint.Orderedmap, "orderedmap") }

func TestFailpointsite(t *testing.T) { runFixture(t, lint.Failpointsite, "failpointsite") }

func TestMetricname(t *testing.T) { runFixture(t, lint.Metricname, "metricname") }

func TestQlogfield(t *testing.T) { runFixture(t, lint.Qlogfield, "qlogfield") }

func TestDirective(t *testing.T) { runFixture(t, lint.Directive, "directive") }

// The lockcheck fixture is deliberately multi-file (a/a.go + a/helper.go)
// and multi-package (a + shard, with the confinement violation crossing the
// package boundary): one fixture run covers wants everywhere the loader
// finds them.
func TestLockcheck(t *testing.T) { runFixture(t, lint.Lockcheck, "lockcheck") }

func TestLeakcheck(t *testing.T) { runFixture(t, lint.Leakcheck, "leakcheck") }

// The deadcode fixture is a whole module: a root package, a binary, a bench
// and a library with one declaration per rule.
func TestDeadcode(t *testing.T) { runFixture(t, lint.Deadcode, "deadcode") }

// TestSuiteCleanOnRepo is the same gate as `make lint`: the full analyzer
// suite over the whole module must report nothing. Keeping it as a test
// means plain `go test ./...` catches a new violation even when the lint
// target is skipped.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type check")
	}
	prog, err := lint.LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunAnalyzers(prog, lint.Suite())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: [%s] %s", prog.Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}

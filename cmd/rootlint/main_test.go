package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestFrontDoor(t *testing.T) {
	code, stdout, stderr := runCLI("-h")
	if code != 0 || stdout != "" || !strings.HasPrefix(stderr, "usage: rootlint [-list] [-time] [packages]\n\nAnalyzers:\n  directive ") {
		t.Errorf("rootlint -h: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	code, stdout, stderr = runCLI("-fix")
	if code != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined") {
		t.Errorf("rootlint -fix: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// The suite, in reporting order: what DESIGN.md's table of analyzers lists.
func TestListGolden(t *testing.T) {
	code, stdout, stderr := runCLI("-list")
	var names []string
	for _, line := range strings.Split(strings.TrimSuffix(stdout, "\n"), "\n") {
		name, doc, _ := strings.Cut(line, " ")
		if strings.TrimSpace(doc) == "" {
			t.Errorf("analyzer %q is listed with no description: %q", name, line)
		}
		names = append(names, name)
	}
	want := "directive detrand hotpath failpointsite metricname qlogfield orderedmap lockcheck leakcheck deadcode"
	if got := strings.Join(names, " "); code != 0 || stderr != "" || got != want {
		t.Errorf("rootlint -list: exit %d, stderr %q, analyzers %q, want %q", code, stderr, got, want)
	}
}

// Outside a module there is nothing to analyze, which is not a finding.
func TestNoModule(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	code, stdout, stderr := runCLI("./...")
	if code != 2 || stdout != "" || !strings.Contains(stderr, "no go.mod found") {
		t.Errorf("rootlint outside a module: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

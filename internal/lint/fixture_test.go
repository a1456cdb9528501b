package lint_test

// The fixture harness the analyzer tests run, mirroring
// golang.org/x/tools/go/analysis/analysistest: fixture source lines carry
// `// want "regexp"` comments naming the diagnostics the analyzer must
// report on that line, and the harness fails the test on any mismatch in
// either direction — a missing diagnostic (the analyzer went blind) or an
// unexpected one (a false positive on clean code).

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

// wantRE extracts the quoted patterns of a want comment.
var wantRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type want struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// runFixture loads testdata/src/<fixture> (relative to the test's working
// directory) as one program and checks analyzer's diagnostics against the
// fixture's want comments.
func runFixture(t *testing.T, analyzer *lint.Analyzer, fixture string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	prog, err := lint.Load(lint.LoadConfig{Dir: dir, ModulePath: fixture})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}

	var wants []*want
	for _, pkg := range prog.Packages {
		for _, files := range [][]*ast.File{pkg.Files, pkg.TestFiles} {
			for _, f := range files {
				wants = append(wants, collectWants(t, prog.Fset, f)...)
			}
		}
	}

	diags, err := lint.RunAnalyzers(prog, []*lint.Analyzer{analyzer})
	if err != nil {
		t.Fatalf("running %s on %s: %v", analyzer.Name, fixture, err)
	}

	for _, d := range diags {
		p := prog.Fset.Position(d.Pos)
		if !claim(wants, p.Filename, p.Line, d.Message) {
			t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(p.Filename), p.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", filepath.Base(w.file), w.line, w.pattern)
		}
	}
}

// claim marks the first unmatched want on (file, line) whose pattern
// matches msg.
func claim(wants []*want, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.pattern.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants parses `// want "p1" "p2"` comments.
func collectWants(t *testing.T, fset *token.FileSet, f *ast.File) []*want {
	t.Helper()
	var out []*want
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			rest, ok := strings.CutPrefix(text, "want ")
			if !ok {
				// A rootlint directive under test carries its expectation in
				// the same comment (`//rootlint:bogus // want "..."`): only
				// one line comment fits on a line, and the diagnostic lands
				// on the comment's own line.
				if i := strings.Index(text, "// want "); i >= 0 {
					rest, ok = text[i+len("// want "):], true
				}
			}
			if !ok {
				continue
			}
			p := fset.Position(c.Pos())
			matches := wantRE.FindAllStringSubmatch(rest, -1)
			if len(matches) == 0 {
				t.Fatalf("%s:%d: malformed want comment %q", filepath.Base(p.Filename), p.Line, c.Text)
			}
			for _, m := range matches {
				pat, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", filepath.Base(p.Filename), p.Line, m[1], err)
				}
				out = append(out, &want{file: p.Filename, line: p.Line, pattern: pat})
			}
		}
	}
	return out
}

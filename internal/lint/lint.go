// Package lint implements rootlint, the repository's static-analysis suite.
// It mechanically enforces the invariants the campaign engine's guarantees
// rest on — no wall-clock or unseeded randomness in simulation packages
// (byte-identical reports), no allocation-prone constructs in functions
// marked as hot paths (the PR 2 zero-alloc contract), every failpoint site
// registered and chaos-tested (crash-safety coverage), and no map-iteration
// writes into ordered sinks (byte-identical output again).
//
// The framework mirrors golang.org/x/tools/go/analysis — an Analyzer value
// with a per-package Run over a typed Pass, fixture tests driven by
// "// want" comments — but is built purely on the standard library's go/ast
// and go/types, because this module deliberately carries no external
// dependencies.
//
// # Annotation grammar
//
// Code communicates with the analyzers through //rootlint: directives:
//
//	//rootlint:hotpath
//	    On a function's doc comment: opts the function into the hotpath
//	    analyzer's zero-alloc contract.
//
//	//rootlint:allow <category>[,<category>...]: <reason>
//	    Suppresses findings of the named categories on the same line (when
//	    trailing code) or on the line directly below (when standing alone).
//	    The reason is mandatory: an allow without a justification is itself
//	    a finding. Categories: wallclock, globalrand, hotpath, maporder,
//	    lockcheck, leakcheck, deadcode.
//
//	//rootlint:guardedby <mutexField>
//	    On a struct field (or package var): every access must happen while
//	    the named sync.Mutex/RWMutex field on the same base value is held.
//
//	//rootlint:atomic
//	    On a struct field: every access must go through the sync/atomic
//	    API; any plain read or write (mixed regimes) is a finding.
//
//	//rootlint:shardconfined <root>[,<root>...]
//	    On a struct field: the field may be touched only from the named
//	    root functions or from functions reachable exclusively from them
//	    (a whole-program caller walk). Roots are names in the struct's
//	    package: "loop" or "Type.method".
//
//	//rootlint:immutable-after-start
//	    On a struct field: written only by constructors (New*/new*), init,
//	    Set*/set* swap points, and Start/start; read-only everywhere else.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned in the program's FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Analyzer is one named check. Exactly one of Run and RunProgram is
// typically set: Run is invoked once per package with a typed Pass, while
// RunProgram is invoked once with the whole Program, for checks that need
// cross-package state (the failpoint site registry).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
	// RunProgram runs after every per-package pass, over the whole program.
	RunProgram func(*Program) error
}

// Pass presents one type-checked package to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Pkg and Info hold the type-checker's results for Files.
	Pkg  *types.Package
	Info *types.Info
	// Files are the package's non-test files.
	Files []*ast.File

	loaded *PackageInfo
	prog   *Program
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.prog.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// PackageInfo is one loaded package within a Program.
type PackageInfo struct {
	Path  string
	Pkg   *types.Package
	Info  *types.Info
	Files []*ast.File
	// TestFiles are the directory's _test.go files, parsed but not
	// type-checked (they may belong to the external _test package): only
	// syntactic checks, like failpoint chaos coverage, may use them.
	TestFiles []*ast.File
	// Allows holds the package's parsed //rootlint:allow directives.
	Allows *Allows
}

// Program is a load of packages sharing one FileSet.
type Program struct {
	Fset     *token.FileSet
	Packages []*PackageInfo

	module string // import path of the module's root package
	diags  []Diagnostic
}

func (prog *Program) report(d Diagnostic) { prog.diags = append(prog.diags, d) }

// Reportf records a finding from a RunProgram analyzer.
func (prog *Program) Reportf(a *Analyzer, pos token.Pos, format string, args ...any) {
	prog.report(Diagnostic{Pos: pos, Analyzer: a.Name, Message: fmt.Sprintf(format, args...)})
}

// RunAnalyzers applies each analyzer to every package of prog (Run), then to
// the program as a whole (RunProgram), returning findings sorted by position.
func RunAnalyzers(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	prog.diags = nil
	for _, a := range analyzers {
		if a.Run != nil {
			for _, pkg := range prog.Packages {
				pass := &Pass{
					Analyzer: a, Fset: prog.Fset,
					Pkg: pkg.Pkg, Info: pkg.Info, Files: pkg.Files,
					loaded: pkg, prog: prog,
				}
				if err := a.Run(pass); err != nil {
					return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
				}
			}
		}
		if a.RunProgram != nil {
			if err := a.RunProgram(prog); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
		}
	}
	sort.SliceStable(prog.diags, func(i, j int) bool { return prog.diags[i].Pos < prog.diags[j].Pos })
	return prog.diags, nil
}

// Suite returns the full rootlint analyzer suite in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{Directive, Detrand, Hotpath, Failpointsite, Metricname, Qlogfield, Orderedmap, Lockcheck, Leakcheck, Deadcode}
}

// --- //rootlint: directive parsing -----------------------------------------

const directivePrefix = "//rootlint:"

// allowEntry is one parsed //rootlint:allow directive.
type allowEntry struct {
	pos        token.Pos
	line       int  // line the directive appears on
	standalone bool // comment is alone on its line (covers the next line)
	categories []string
	reason     string
	malformed  string // non-empty: grammar error description
}

// Allows indexes a package's allow directives by file and line.
type Allows struct {
	fset    *token.FileSet
	entries map[string][]allowEntry // file name -> entries
}

// knownCategories is the closed set of suppressible finding categories.
var knownCategories = map[string]bool{
	"wallclock":  true,
	"globalrand": true,
	"hotpath":    true,
	"maporder":   true,
	"lockcheck":  true,
	"leakcheck":  true,
	"deadcode":   true,
}

// CollectAllows parses every //rootlint:allow directive in files. Grammar
// errors are preserved on the entries for the directive analyzer to report.
func CollectAllows(fset *token.FileSet, files []*ast.File) *Allows {
	a := &Allows{fset: fset, entries: make(map[string][]allowEntry)}
	for _, f := range files {
		tf := fset.File(f.Pos())
		if tf == nil {
			continue
		}
		// Record which lines hold non-comment code, so a directive can be
		// classified as trailing (same line as code) or standalone.
		codeLines := make(map[int]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case nil, *ast.Comment, *ast.CommentGroup, *ast.File:
				return true
			default:
				codeLines[fset.Position(n.Pos()).Line] = true
				return true
			}
		})
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				body := strings.TrimPrefix(c.Text, directivePrefix)
				verb, rest, _ := strings.Cut(body, " ")
				line := fset.Position(c.Pos()).Line
				switch {
				case verb == "hotpath" && strings.TrimSpace(rest) == "":
					// Handled by the hotpath analyzer via doc comments.
				case verb == "allow" || strings.HasPrefix(verb, "allow"):
					e := parseAllow(rest)
					e.pos, e.line = c.Pos(), line
					e.standalone = !codeLines[line]
					a.entries[tf.Name()] = append(a.entries[tf.Name()], e)
				case guardVerbs[verb]:
					// Guard-regime directives are consumed by the lockcheck
					// analyzer; here only their grammar is validated.
					if msg := checkGuardGrammar(verb, rest); msg != "" {
						a.entries[tf.Name()] = append(a.entries[tf.Name()], allowEntry{
							pos: c.Pos(), line: line, malformed: msg,
						})
					}
				default:
					a.entries[tf.Name()] = append(a.entries[tf.Name()], allowEntry{
						pos: c.Pos(), line: line,
						malformed: fmt.Sprintf("unknown rootlint directive %q", verb),
					})
				}
			}
		}
	}
	return a
}

// guardVerbs is the set of lockcheck guard-regime directive verbs.
var guardVerbs = map[string]bool{
	"guardedby":             true,
	"atomic":                true,
	"shardconfined":         true,
	"immutable-after-start": true,
}

// checkGuardGrammar validates the argument shape of a guard-regime
// directive, returning a description of the grammar error ("" when valid).
func checkGuardGrammar(verb, rest string) string {
	rest = strings.TrimSpace(rest)
	switch verb {
	case "guardedby":
		if rest == "" {
			return "guardedby needs a mutex field name: //rootlint:guardedby <mutexField>"
		}
		if !isGuardName(rest) {
			return fmt.Sprintf("guardedby argument %q is not a field name", rest)
		}
	case "atomic", "immutable-after-start":
		if rest != "" {
			return fmt.Sprintf("%s takes no argument", verb)
		}
	case "shardconfined":
		if rest == "" {
			return "shardconfined needs at least one root function: //rootlint:shardconfined <root>[,<root>...]"
		}
		for _, r := range strings.Split(rest, ",") {
			if !isGuardName(strings.TrimSpace(r)) {
				return fmt.Sprintf("shardconfined root %q is not a function name", strings.TrimSpace(r))
			}
		}
	}
	return ""
}

// isGuardName reports whether s is an identifier or a Type.name pair.
func isGuardName(s string) bool {
	if s == "" {
		return false
	}
	for i, part := range strings.Split(s, ".") {
		if i > 1 || part == "" {
			return false
		}
		for j, r := range part {
			ok := r == '_' || ('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z') || (j > 0 && '0' <= r && r <= '9')
			if !ok {
				return false
			}
		}
	}
	return true
}

// parseAllow parses the tail of "//rootlint:allow <cats>: <reason>".
func parseAllow(rest string) allowEntry {
	var e allowEntry
	cats, reason, ok := strings.Cut(rest, ":")
	if !ok {
		e.malformed = "allow directive needs a reason: //rootlint:allow <category>: <reason>"
		return e
	}
	for _, c := range strings.Split(cats, ",") {
		c = strings.TrimSpace(c)
		if c == "" {
			continue
		}
		if !knownCategories[c] {
			e.malformed = fmt.Sprintf("unknown allow category %q", c)
			return e
		}
		e.categories = append(e.categories, c)
	}
	if len(e.categories) == 0 {
		e.malformed = "allow directive names no category"
		return e
	}
	e.reason = strings.TrimSpace(reason)
	if e.reason == "" {
		e.malformed = "allow directive has an empty reason"
	}
	return e
}

// Allowed reports whether a finding of category at pos is suppressed by a
// well-formed allow directive: one trailing on the same line, or one standing
// alone on the line directly above.
func (a *Allows) Allowed(pos token.Pos, category string) bool {
	p := a.fset.Position(pos)
	for _, e := range a.entries[p.Filename] {
		if e.malformed != "" {
			continue
		}
		covers := e.line == p.Line || (e.standalone && e.line == p.Line-1)
		if !covers {
			continue
		}
		for _, c := range e.categories {
			if c == category {
				return true
			}
		}
	}
	return false
}

// Directive validates the //rootlint: annotation grammar itself: unknown
// verbs, allows without a reason or with an unknown category. Keeping this a
// separate analyzer means a malformed suppression is a loud failure instead
// of a silently ignored comment.
var Directive = &Analyzer{
	Name: "directive",
	Doc:  "checks that //rootlint: annotations follow the documented grammar",
	Run: func(pass *Pass) error {
		allows := pass.allows()
		for _, entries := range allows.entries {
			for _, e := range entries {
				if e.malformed != "" {
					pass.Reportf(e.pos, "%s", e.malformed)
				}
			}
		}
		return nil
	},
}

// allows returns the package's parsed allow directives.
func (p *Pass) allows() *Allows { return p.prog.AllowsFor(p.loaded) }

// AllowsFor returns pkg's parsed allow directives, caching on the
// PackageInfo so per-package passes and whole-program analyzers share one
// parse.
func (prog *Program) AllowsFor(pkg *PackageInfo) *Allows {
	if pkg.Allows == nil {
		pkg.Allows = CollectAllows(prog.Fset, pkg.Files)
	}
	return pkg.Allows
}

// funcHasDirective reports whether decl's doc comment carries the given
// //rootlint: verb (e.g. "hotpath").
func funcHasDirective(decl *ast.FuncDecl, verb string) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if c.Text == directivePrefix+verb {
			return true
		}
	}
	return false
}

// pkgNameOf resolves ident to the *types.PkgName it denotes, if any.
func pkgNameOf(info *types.Info, ident *ast.Ident) (*types.PkgName, bool) {
	if ident == nil {
		return nil, false
	}
	obj, ok := info.Uses[ident]
	if !ok {
		return nil, false
	}
	pn, ok := obj.(*types.PkgName)
	return pn, ok
}

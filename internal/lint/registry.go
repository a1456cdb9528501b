package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"
)

// Three analyzers prove the same property of three packages — "a static
// registry, each entry claimed exactly once, by literal" — so they are one
// engine (runRegistry) and three rows (registryRows). Program-wide, for the
// row's package P, constructor set C, registry variable R and key field K:
//
//  1. every P.C(...) call must spell its key (and, for a variadic row,
//     every other argument) as a string literal: a computed name defeats
//     the cross-check and would only fail at init time, by panic;
//  2. the key must name an entry of `var R = []T{{K: "...", ...}, ...}` in P;
//  3. no key may be claimed at two call sites (claims are one-shot; two
//     failpoint.Eval calls sharing a site split its hit counter);
//  4. no key may appear twice in R;
//  5. no dead entries: an entry nothing claims lies about coverage;
//  6. the row's own check of a claim against its entry, or of a live entry.
//
// Only non-test files are scanned for claims: a package's own tests
// legitimately exercise claim panics and hold names their production
// claimants would, and the runtime claim-once panic still guards them.

// Metricname cross-checks telemetry.NewCounter/NewGauge/NewHistogram calls
// against telemetry.Registry; its own check is that the constructor matches
// the entry's registered Kind.
var Metricname = &Analyzer{
	Name: "metricname",
	Doc:  "cross-checks telemetry metric constructors against the static registry",
}

// Qlogfield cross-checks qlog.NewEvent claims against qlog.Registry; its own
// check is that the claimed field list equals the entry's Fields — same
// names, same order, same count — so emission arity is statically visible
// at the claim site.
var Qlogfield = &Analyzer{
	Name: "qlogfield",
	Doc:  "cross-checks qlog event claims against the static event registry",
}

// Failpointsite cross-checks failpoint.Eval sites against failpoint.Sites;
// its own check is chaos coverage: every registered site must be exercised
// by a "site=action[@N]" spec literal in some _test.go file, and every
// kill-capable site (Kill: true) with a kill action specifically — kill is
// the one action whose recovery path (resume to byte-identical output)
// example tests cannot cover incidentally.
var Failpointsite = &Analyzer{
	Name: "failpointsite",
	Doc:  "cross-checks failpoint.Eval sites against the registry and chaos-test coverage",
}

// regClaim is one constructor call: its key, the constructor used, and the
// remaining literal arguments of a variadic row.
type regClaim struct {
	key, ctor string
	args      []string
	pos       token.Pos
}

// regEntry is one registry element with its keyed fields still as syntax,
// for the row's own check to read.
type regEntry struct {
	key    string
	fields map[string]ast.Expr
	pos    token.Pos
}

type reportFunc func(pos token.Pos, format string, args ...any)

// registryRow is one analyzer. The message fields are its diagnostics,
// verbatim; those with a %q take the key.
type registryRow struct {
	analyzer *Analyzer
	pkg      string          // name of the package owning constructors and registry
	ctors    map[string]bool // constructor names
	variadic bool            // key plus any number of literals; otherwise exactly one argument
	regVar   string          // registry variable in pkg
	keyField string          // field of a registry element holding the key

	badShape, nonLiteral, noRegistry, unregistered, twice, duplicate, dead string

	// checkClaim, when set, compares a registered key's first claim with its entry.
	checkClaim func(report reportFunc, c regClaim, e regEntry)
	// liveEntry, when set, is called once per run and returns the check
	// applied to every entry that is claimed.
	liveEntry func(prog *Program) func(report reportFunc, e regEntry)
}

var registryRows = []*registryRow{
	{
		analyzer: Metricname, pkg: "telemetry", regVar: "Registry", keyField: "Name",
		ctors:        map[string]bool{"NewCounter": true, "NewGauge": true, "NewHistogram": true},
		nonLiteral:   "telemetry metric name must be a string literal for registry cross-checking",
		noRegistry:   "telemetry metrics are constructed but no Registry was found in the telemetry package",
		unregistered: "metric %q is not in the telemetry Registry",
		twice:        "metric %q is constructed at multiple call sites; claims are one-shot and the second panics at init",
		duplicate:    "duplicate Registry entry for metric %q",
		dead:         "dead Registry entry: metric %q is never constructed",
		checkClaim: func(report reportFunc, c regClaim, e regEntry) {
			kind, _ := e.fields["Kind"].(*ast.Ident)
			if kind != nil && kind.Name != "Kind"+strings.TrimPrefix(c.ctor, "New") {
				report(c.pos, "metric %q is registered as %s but constructed with %s", c.key, kind.Name, c.ctor)
			}
		},
	},
	{
		analyzer: Qlogfield, pkg: "qlog", regVar: "Registry", keyField: "Kind",
		ctors: map[string]bool{"NewEvent": true}, variadic: true,
		badShape:     "qlog event claims must spell the kind and every field as string literals for schema cross-checking",
		nonLiteral:   "qlog event kind and field names must be string literals for schema cross-checking",
		noRegistry:   "qlog events are claimed but no Registry was found in the qlog package",
		unregistered: "qlog event %q is not in the qlog Registry",
		twice:        "qlog event %q is claimed at multiple call sites; claims are one-shot and the second panics at init",
		duplicate:    "duplicate Registry entry for qlog event %q",
		dead:         "dead Registry entry: qlog event %q is never claimed",
		checkClaim: func(report reportFunc, c regClaim, e regEntry) {
			// Fields: []Field{{Name: "..."}, ...}. Count first (the coarse
			// mismatch), then name by name in order.
			var want []string
			for _, f := range compositeElems(e.fields["Fields"]) {
				if name, ok := stringLit(keyedFields(f)["Name"]); ok {
					want = append(want, name)
				}
			}
			if len(c.args) != len(want) {
				report(c.pos, "qlog event %q claimed with %d fields, Registry has %d", c.key, len(c.args), len(want))
				return
			}
			for i := range want {
				if c.args[i] != want[i] {
					report(c.pos, "qlog event %q field %d is %q, Registry says %q", c.key, i, c.args[i], want[i])
					return
				}
			}
		},
	},
	{
		analyzer: Failpointsite, pkg: "failpoint", regVar: "Sites", keyField: "Name",
		ctors:        map[string]bool{"Eval": true},
		nonLiteral:   "failpoint.Eval site name must be a string literal for registry cross-checking",
		noRegistry:   "failpoint.Eval sites exist but no Sites registry was found in the failpoint package",
		unregistered: "failpoint site %q is not in the failpoint.Sites registry",
		twice:        "failpoint site %q is evaluated at multiple locations; hit counts would span unrelated code paths",
		duplicate:    "duplicate registry entry for failpoint site %q",
		dead:         "dead registry entry: no failpoint.Eval(%q) site exists",
		liveEntry: func(prog *Program) func(reportFunc, regEntry) {
			actions := chaosActions(prog)
			return func(report reportFunc, e regEntry) {
				acts := actions[e.key]
				kill, _ := e.fields["Kill"].(*ast.Ident)
				switch {
				case len(acts) == 0:
					report(e.pos, "failpoint site %q is never exercised by any chaos test spec", e.key)
				case kill != nil && kill.Name == "true" && !acts["kill"]:
					report(e.pos, "kill-capable failpoint site %q is never exercised with a kill action by the chaos tests", e.key)
				}
			}
		},
	},
}

// RunProgram is attached in init to break the initialization cycle between
// an analyzer value and the row that reports through it.
func init() {
	for _, row := range registryRows {
		row.analyzer.RunProgram = func(prog *Program) error { runRegistry(prog, row); return nil }
	}
}

func runRegistry(prog *Program, row *registryRow) {
	report := func(pos token.Pos, format string, args ...any) {
		prog.Reportf(row.analyzer, pos, format, args...)
	}
	var claims []regClaim
	var entries []regEntry
	registryFound := false
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			claims = append(claims, row.collectClaims(report, pkg, f)...)
			// The owning package is recognised by name, so fixtures with a
			// local telemetry/qlog/failpoint package work like the real one.
			if pkg.Pkg != nil && pkg.Pkg.Name() == row.pkg {
				es, found := row.collectEntries(f)
				entries = append(entries, es...)
				registryFound = registryFound || found
			}
		}
	}
	if len(claims) == 0 {
		return // the program claims nothing; nothing to cross-check
	}
	if !registryFound {
		report(claims[0].pos, row.noRegistry)
		return
	}
	claimsByKey := make(map[string][]regClaim)
	for _, c := range claims {
		claimsByKey[c.key] = append(claimsByKey[c.key], c)
	}
	entriesByKey := make(map[string][]regEntry)
	for _, e := range entries {
		entriesByKey[e.key] = append(entriesByKey[e.key], e)
	}
	for key, sites := range claimsByKey {
		for _, s := range sites[1:] {
			report(s.pos, row.twice, key)
		}
		if es := entriesByKey[key]; len(es) == 0 {
			report(sites[0].pos, row.unregistered, key)
		} else if row.checkClaim != nil {
			row.checkClaim(report, sites[0], es[0])
		}
	}
	var liveEntry func(reportFunc, regEntry)
	if row.liveEntry != nil {
		liveEntry = row.liveEntry(prog)
	}
	for key, es := range entriesByKey {
		for _, e := range es[1:] {
			report(e.pos, row.duplicate, key)
		}
		if len(claimsByKey[key]) == 0 {
			report(es[0].pos, row.dead, key)
		} else if liveEntry != nil {
			liveEntry(report, es[0])
		}
	}
}

// collectClaims gathers <row.pkg>.<ctor>(literal...) call sites in f.
func (row *registryRow) collectClaims(report reportFunc, pkg *PackageInfo, f *ast.File) []regClaim {
	var out []regClaim
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !row.ctors[sel.Sel.Name] {
			return true
		}
		ident, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pkgNameOf(pkg.Info, ident)
		if !ok {
			return true
		}
		if path := pn.Imported().Path(); path != row.pkg && !strings.HasSuffix(path, "/"+row.pkg) {
			return true
		}
		switch {
		case !row.variadic && len(call.Args) != 1:
			return true
		case row.variadic && (len(call.Args) == 0 || call.Ellipsis.IsValid()):
			report(call.Pos(), row.badShape)
			return true
		}
		c := regClaim{ctor: sel.Sel.Name, pos: call.Args[0].Pos(), args: []string{}}
		for i, arg := range call.Args {
			v, ok := stringLit(arg)
			if !ok {
				report(arg.Pos(), row.nonLiteral)
				return true
			}
			if i == 0 {
				c.key = v
			} else {
				c.args = append(c.args, v)
			}
		}
		out = append(out, c)
		return true
	})
	return out
}

// collectEntries parses `var <regVar> = []T{{<keyField>: "...", ...}, ...}`
// declarations in f, reporting whether one was found.
func (row *registryRow) collectEntries(f *ast.File) (out []regEntry, found bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for i, name := range spec.Names {
			if name.Name != row.regVar || i >= len(spec.Values) {
				continue
			}
			if _, ok := spec.Values[i].(*ast.CompositeLit); !ok {
				continue
			}
			found = true
			for _, elt := range compositeElems(spec.Values[i]) {
				e := regEntry{pos: elt.Pos(), fields: keyedFields(elt)}
				if e.key, _ = stringLit(e.fields[row.keyField]); e.key != "" {
					out = append(out, e)
				}
			}
		}
		return true
	})
	return out, found
}

// compositeElems returns the composite-literal elements of a composite
// literal (the entries of a registry, the Fields of an entry).
func compositeElems(expr ast.Expr) []*ast.CompositeLit {
	lit, ok := expr.(*ast.CompositeLit)
	if !ok {
		return nil
	}
	var out []*ast.CompositeLit
	for _, elt := range lit.Elts {
		if c, ok := elt.(*ast.CompositeLit); ok {
			out = append(out, c)
		}
	}
	return out
}

// keyedFields indexes a struct literal's `Key: value` elements by key.
func keyedFields(lit *ast.CompositeLit) map[string]ast.Expr {
	fields := make(map[string]ast.Expr)
	for _, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok {
				fields[key.Name] = kv.Value
			}
		}
	}
	return fields
}

// stringLit unquotes expr if it is a string literal.
func stringLit(expr ast.Expr) (string, bool) {
	lit, ok := expr.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	v, err := strconv.Unquote(lit.Value)
	return v, err == nil
}

// chaosSpecRE matches one failpoint activation spec, the grammar accepted by
// failpoint.Enable.
var chaosSpecRE = regexp.MustCompile(`^([a-zA-Z0-9_./-]+)=(panic|error|kill)(@[0-9]+)?$`)

// chaosActions scans every test file for "site=action[@N]" string literals
// (including comma-separated multi-site specs) and returns which actions
// each site is exercised with.
func chaosActions(prog *Program) map[string]map[string]bool {
	actions := make(map[string]map[string]bool)
	for _, pkg := range prog.Packages {
		for _, f := range pkg.TestFiles {
			ast.Inspect(f, func(n ast.Node) bool {
				s, ok := n.(ast.Expr)
				if !ok {
					return true
				}
				spec, ok := stringLit(s)
				if !ok {
					return true
				}
				for _, part := range strings.Split(spec, ",") {
					if m := chaosSpecRE.FindStringSubmatch(strings.TrimSpace(part)); m != nil {
						if actions[m[1]] == nil {
							actions[m[1]] = make(map[string]bool)
						}
						actions[m[1]][m[2]] = true
					}
				}
				return true
			})
		}
	}
	return actions
}

package lint_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// coveragePackages are the concurrent-surface packages whose shared state
// must carry lockcheck directives (the tentpole's annotation campaign).
var coveragePackages = []string{
	"internal/dnsserver",
	"internal/blast",
	"internal/measure",
	"internal/dataset",
	"internal/telemetry",
	"internal/netem",
}

// directiveRE matches a lockcheck protection-regime directive or a reasoned
// lockcheck allow on a field's comment.
var directiveRE = regexp.MustCompile(`rootlint:(guardedby\b|atomic\b|shardconfined\b|immutable-after-start\b|allow lockcheck:)`)

// TestDirectiveCoverage mirrors failpoint's TestSiteRegistryMatchesTree: a
// plain AST scan, independent of the lockcheck analyzer's type-checked
// implementation, asserting that every struct carrying a sync.Mutex/RWMutex
// or sync/atomic field in the concurrent packages declares a protection
// regime (or a reasoned allow) on each of its shared fields. New concurrent
// state therefore cannot land unannotated even if the analyzer itself were
// accidentally dropped from the suite.
func TestDirectiveCoverage(t *testing.T) {
	root := lintModuleRoot(t)
	checked := 0
	for _, rel := range coveragePackages {
		dir := filepath.Join(root, rel)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		fset := token.NewFileSet()
		var files []*ast.File
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatalf("%s/%s: %v", rel, name, err)
			}
			files = append(files, f)
		}
		syncTypes := localSyncTypes(files)
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				if !structCarriesSync(st, syncTypes) {
					return true
				}
				checked++
				for _, field := range st.Fields.List {
					if len(field.Names) == 0 {
						continue // embedded: promoted API, not shared state
					}
					if fieldSelfSynchronized(field.Type, syncTypes) {
						continue
					}
					blank := true
					for _, name := range field.Names {
						if name.Name != "_" {
							blank = false
						}
					}
					if blank {
						continue
					}
					if !fieldHasDirective(field) {
						pos := fset.Position(field.Pos())
						t.Errorf("%s: struct %s field %s has no lockcheck directive (//rootlint:guardedby/atomic/shardconfined/immutable-after-start or a reasoned allow)",
							pos, ts.Name.Name, field.Names[0].Name)
					}
				}
				return true
			})
		}
	}
	if checked == 0 {
		t.Fatal("found no sync-carrying structs in the covered packages; the scanner is broken")
	}
	t.Logf("directive coverage verified on %d sync-carrying structs", checked)
}

// keeperRE picks out what a deadcode allow's reason may name as the keeper:
// a file under bench/, a _test.go file, or a Test/Benchmark/Fuzz function.
var keeperRE = regexp.MustCompile(`\bbench/\w+\.go\b|[\w/]*\w_test\.go\b|\b(?:Test|Benchmark|Fuzz)\w+`)

// TestDeadcodeAllowsNameTheirKeeper is TestDirectiveCoverage's counterpart
// for the deadcode analyzer, again a plain scan independent of it: every
// //rootlint:allow deadcode in the module names at least one keeper, and
// every keeper it names exists, so an annotation cannot outlive the bench
// file or the test that justified it.
func TestDeadcodeAllowsNameTheirKeeper(t *testing.T) {
	root := lintModuleRoot(t)
	keepers := make(map[string]bool) // module-relative file paths and test function names
	type allow struct{ at, reason string }
	var allows []allow
	testFuncRE := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w+)\(`)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		switch {
		case strings.HasSuffix(rel, "_test.go"):
			keepers[rel] = true
			for _, m := range testFuncRE.FindAllSubmatch(src, -1) {
				keepers[string(m[1])] = true
			}
			return nil
		case strings.HasPrefix(rel, "bench/"):
			keepers[rel] = true
		}
		for i, line := range strings.Split(string(src), "\n") {
			if reason, ok := strings.CutPrefix(strings.TrimSpace(line), "//rootlint:allow deadcode:"); ok {
				allows = append(allows, allow{fmt.Sprintf("%s:%d", rel, i+1), reason})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(allows) == 0 {
		t.Fatal("found no deadcode allows; the scanner is broken")
	}
	for _, a := range allows {
		named := keeperRE.FindAllString(a.reason, -1)
		if len(named) == 0 {
			t.Errorf("%s: reason names no keeper (a bench/ file, a _test.go file or a test function):%s", a.at, a.reason)
		}
		for _, k := range named {
			found := keepers[k]
			for have := range keepers {
				found = found || strings.HasSuffix(have, "/"+k)
			}
			if !found {
				t.Errorf("%s: keeper %s does not exist", a.at, k)
			}
		}
	}
	t.Logf("%d deadcode allows, every keeper found", len(allows))
}

// lintModuleRoot walks up from the test's directory to go.mod.
func lintModuleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// localSyncTypes finds package-local named struct types that are pure
// wrappers of sync/atomic state (telemetry's padded counter slots), so a
// field of such a type counts as a sync trigger and as self-synchronized.
// Iterates to a fixpoint so wrappers of wrappers resolve.
func localSyncTypes(files []*ast.File) map[string]bool {
	out := make(map[string]bool)
	for changed := true; changed; {
		changed = false
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || out[ts.Name.Name] {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				pure := len(st.Fields.List) > 0
				for _, field := range st.Fields.List {
					blank := len(field.Names) > 0
					for _, name := range field.Names {
						if name.Name != "_" {
							blank = false
						}
					}
					if !blank && !typeMentionsSync(field.Type, out) {
						pure = false
						break
					}
				}
				if pure {
					out[ts.Name.Name] = true
					changed = true
				}
				return true
			})
		}
	}
	return out
}

// structCarriesSync reports whether st has a named, non-blank field of a
// sync.Mutex/RWMutex or sync/atomic type (directly, behind pointers or
// arrays, or via a local pure-wrapper type).
func structCarriesSync(st *ast.StructType, syncTypes map[string]bool) bool {
	for _, field := range st.Fields.List {
		if len(field.Names) == 0 {
			continue
		}
		if typeMentionsSync(field.Type, syncTypes) {
			return true
		}
	}
	return false
}

// fieldSelfSynchronized reports whether a field needs no directive because
// its type synchronizes itself: sync/atomic types, channels, and local pure
// wrappers, possibly behind pointers, arrays, or generic instantiation.
func fieldSelfSynchronized(e ast.Expr, syncTypes map[string]bool) bool {
	switch x := e.(type) {
	case *ast.ChanType:
		return true
	case *ast.StarExpr:
		return fieldSelfSynchronized(x.X, syncTypes)
	case *ast.ArrayType:
		return fieldSelfSynchronized(x.Elt, syncTypes)
	case *ast.IndexExpr: // atomic.Pointer[T]
		return fieldSelfSynchronized(x.X, syncTypes)
	case *ast.SelectorExpr:
		if ident, ok := x.X.(*ast.Ident); ok && (ident.Name == "sync" || ident.Name == "atomic") {
			return true
		}
	case *ast.Ident:
		return syncTypes[x.Name]
	}
	return false
}

// typeMentionsSync reports whether the type expression resolves to the
// primitives lockcheck treats as carrier triggers: sync.Mutex/RWMutex or
// anything from sync/atomic (mirroring containsSyncPrim — sync.Once and
// sync.WaitGroup coordinate without guarding sibling fields), a local
// pure-wrapper name, behind any number of pointers/arrays/instantiations.
// Channels do not count as triggers either.
func typeMentionsSync(e ast.Expr, syncTypes map[string]bool) bool {
	switch x := e.(type) {
	case *ast.StarExpr:
		return typeMentionsSync(x.X, syncTypes)
	case *ast.ArrayType:
		return typeMentionsSync(x.Elt, syncTypes)
	case *ast.IndexExpr:
		return typeMentionsSync(x.X, syncTypes)
	case *ast.SelectorExpr:
		if ident, ok := x.X.(*ast.Ident); ok {
			switch ident.Name {
			case "atomic":
				return true
			case "sync":
				return x.Sel.Name == "Mutex" || x.Sel.Name == "RWMutex"
			}
		}
	case *ast.Ident:
		return syncTypes[x.Name]
	}
	return false
}

// fieldHasDirective reports whether the field's doc or line comment carries
// a lockcheck regime directive or a reasoned lockcheck allow.
func fieldHasDirective(field *ast.Field) bool {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if directiveRE.MatchString(c.Text) {
				return true
			}
		}
	}
	return false
}

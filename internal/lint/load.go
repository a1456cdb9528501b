package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// LoadConfig describes a source tree to load.
type LoadConfig struct {
	// Dir is the root directory to walk for packages.
	Dir string
	// ModulePath, when non-empty, is the import-path prefix mapped onto Dir
	// (the module path from go.mod). When empty, packages import each other
	// by Dir-relative paths — the layout linttest fixtures use.
	ModulePath string
}

// Load walks cfg.Dir, parses every package, and type-checks them in
// dependency order. Standard-library imports resolve through the compiler's
// source importer, so loading works offline in a zero-dependency module.
// Test files are parsed into PackageInfo.TestFiles but not type-checked.
func Load(cfg LoadConfig) (*Program, error) {
	fset := token.NewFileSet()
	dirs, err := packageDirs(cfg.Dir)
	if err != nil {
		return nil, err
	}
	raw := make(map[string]*rawPackage)
	var order []string
	for _, dir := range dirs {
		rp, err := parseDir(fset, dir)
		if err != nil {
			return nil, err
		}
		if rp == nil {
			continue
		}
		rel, err := filepath.Rel(cfg.Dir, dir)
		if err != nil {
			return nil, err
		}
		rp.path = importPathFor(cfg.ModulePath, rel)
		raw[rp.path] = rp
		order = append(order, rp.path)
	}
	sort.Strings(order)

	sorted, err := topoSort(raw, order)
	if err != nil {
		return nil, err
	}

	prog := &Program{Fset: fset, module: importPathFor(cfg.ModulePath, ".")}
	local := make(map[string]*types.Package)
	fallback := importer.ForCompiler(fset, "source", nil)
	imp := &chainImporter{local: local, fallback: fallback}
	for _, path := range sorted {
		rp := raw[path]
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
			Implicits:  make(map[ast.Node]types.Object),
		}
		var typeErrs []string
		conf := types.Config{
			Importer: imp,
			Error: func(err error) {
				if len(typeErrs) < 10 {
					typeErrs = append(typeErrs, err.Error())
				}
			},
		}
		pkg, _ := conf.Check(path, fset, rp.files, info)
		if len(typeErrs) > 0 {
			return nil, fmt.Errorf("lint: type-checking %s:\n\t%s", path, strings.Join(typeErrs, "\n\t"))
		}
		local[path] = pkg
		prog.Packages = append(prog.Packages, &PackageInfo{
			Path: path, Pkg: pkg, Info: info,
			Files: rp.files, TestFiles: rp.testFiles,
		})
	}
	return prog, nil
}

// LoadModule locates the enclosing go.mod starting at dir and loads the
// whole module.
func LoadModule(dir string) (*Program, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return Load(LoadConfig{Dir: root, ModulePath: modPath})
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: %s has no module directive", gomod)
}

func importPathFor(modulePath, rel string) string {
	rel = filepath.ToSlash(rel)
	switch {
	case rel == "." && modulePath != "":
		return modulePath
	case rel == ".":
		return "."
	case modulePath != "":
		return modulePath + "/" + rel
	default:
		return rel
	}
}

// packageDirs lists every directory under root that may hold a package,
// skipping testdata trees, hidden directories, and vendored code.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// rawPackage is one parsed-but-unchecked package directory.
type rawPackage struct {
	path      string
	name      string
	files     []*ast.File
	testFiles []*ast.File
	imports   map[string]bool
}

// parseDir parses dir's Go files. Returns nil when dir holds no Go files.
// A directory must hold exactly one non-test package (plus optionally its
// external _test package, which lands in testFiles).
func parseDir(fset *token.FileSet, dir string) (*rawPackage, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rp := &rawPackage{imports: make(map[string]bool)}
	buildCtx := build.Default
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		// Honor build constraints (//go:build lines and _GOOS/_GOARCH file
		// suffixes) for the host platform, exactly as the compiler would —
		// otherwise platform-variant files (e.g. reuseport_linux.go and its
		// !linux fallback) type-check as duplicate declarations.
		if match, err := buildCtx.MatchFile(dir, e.Name()); err != nil {
			return nil, err
		} else if !match {
			continue
		}
		full := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(e.Name(), "_test.go") {
			rp.testFiles = append(rp.testFiles, f)
			continue
		}
		if rp.name == "" {
			rp.name = f.Name.Name
		} else if rp.name != f.Name.Name {
			return nil, fmt.Errorf("lint: %s holds two packages: %s and %s", dir, rp.name, f.Name.Name)
		}
		rp.files = append(rp.files, f)
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return nil, err
			}
			rp.imports[p] = true
		}
	}
	if len(rp.files) == 0 && len(rp.testFiles) == 0 {
		return nil, nil
	}
	return rp, nil
}

// topoSort orders paths so every package is checked after its local imports.
func topoSort(raw map[string]*rawPackage, order []string) ([]string, error) {
	const (
		unvisited = iota
		visiting
		done
	)
	state := make(map[string]int)
	var sorted []string
	var visit func(path string, stack []string) error
	visit = func(path string, stack []string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle: %s", strings.Join(append(stack, path), " -> "))
		}
		state[path] = visiting
		rp := raw[path]
		var deps []string
		for imp := range rp.imports {
			if _, ok := raw[imp]; ok {
				deps = append(deps, imp)
			}
		}
		sort.Strings(deps)
		for _, dep := range deps {
			if err := visit(dep, append(stack, path)); err != nil {
				return err
			}
		}
		state[path] = done
		sorted = append(sorted, path)
		return nil
	}
	for _, path := range order {
		if err := visit(path, nil); err != nil {
			return nil, err
		}
	}
	return sorted, nil
}

// chainImporter resolves module-local packages from the in-progress load and
// everything else (the standard library) through the source importer.
type chainImporter struct {
	local    map[string]*types.Package
	fallback types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := c.local[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("lint: import %q failed to type-check", path)
		}
		return pkg, nil
	}
	return c.fallback.Import(path)
}

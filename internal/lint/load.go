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
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// LoadConfig describes a source tree to load.
type LoadConfig struct {
	// Dir is the root directory to walk for packages.
	Dir string
	// ModulePath, when non-empty, is the import-path prefix mapped onto Dir
	// (the module path from go.mod). When empty, packages import each other
	// by Dir-relative paths — the layout the analyzer fixtures use.
	ModulePath string
}

// Load walks cfg.Dir, lets go/build say what each directory holds for the host
// platform (build constraints, the _test.go split, one package a directory),
// parses it, and type-checks every package. Standard-library imports resolve
// through the compiler's source importer, so loading works offline in a
// zero-dependency module. Test files are parsed into PackageInfo.TestFiles
// but not type-checked.
func Load(cfg LoadConfig) (*Program, error) {
	l := &loader{
		prog:   &Program{Fset: token.NewFileSet(), module: importPathFor(cfg.ModulePath, ".")},
		parsed: make(map[string]*PackageInfo),
	}
	l.std = importer.ForCompiler(l.prog.Fset, "source", nil)
	// Everything is parsed before anything is checked, in walk order: token
	// positions, and with them the order of a report, follow the tree.
	var paths []string
	err := filepath.WalkDir(cfg.Dir, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		// Not testdata trees, hidden directories or vendored code.
		if name := d.Name(); dir != cfg.Dir && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if _, empty := err.(*build.NoGoError); empty {
			return nil
		} else if err != nil {
			return fmt.Errorf("lint: %w", err)
		}
		rel, err := filepath.Rel(cfg.Dir, dir)
		if err != nil {
			return err
		}
		pkg := &PackageInfo{Path: importPathFor(cfg.ModulePath, rel)}
		names := slices.Concat(bp.GoFiles, bp.TestGoFiles, bp.XTestGoFiles)
		sort.Strings(names)
		for _, name := range names {
			f, err := parser.ParseFile(l.prog.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return err
			}
			if strings.HasSuffix(name, "_test.go") {
				pkg.TestFiles = append(pkg.TestFiles, f)
			} else {
				pkg.Files = append(pkg.Files, f)
			}
		}
		l.parsed[pkg.Path] = pkg
		paths = append(paths, pkg.Path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}
	return l.prog, nil
}

// loader is the types.Importer of a Load: a package of the tree is
// type-checked the first time something imports it, so Program.Packages
// fills in dependency order with no sort; anything else is the standard
// library's.
type loader struct {
	prog   *Program
	parsed map[string]*PackageInfo // by import path; Pkg is set once checked
	std    types.Importer
}

func (l *loader) Import(path string) (*types.Package, error) {
	pkg, local := l.parsed[path]
	switch {
	case !local:
		return l.std.Import(path)
	case pkg.Pkg != nil:
		return pkg.Pkg, nil
	case pkg.Info != nil:
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	pkg.Info = &types.Info{ // and marks the package as in progress
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []string
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if len(typeErrs) < 10 {
				typeErrs = append(typeErrs, err.Error())
			}
		},
	}
	checked, _ := conf.Check(path, l.prog.Fset, pkg.Files, pkg.Info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s:\n\t%s", path, strings.Join(typeErrs, "\n\t"))
	}
	pkg.Pkg = checked
	l.prog.Packages = append(l.prog.Packages, pkg)
	return checked, nil
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

// importPathFor maps a directory, given relative to the tree's root, to its
// import path: under the module path when there is one, the relative path
// itself for a fixture tree.
func importPathFor(modulePath, rel string) string {
	return path.Join(modulePath, filepath.ToSlash(rel))
}

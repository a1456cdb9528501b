package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"slices"
)

// Deadcode reports the package-level declarations no binary reaches.
//
// Roots are main and init of every `package main` whose directory is not
// named bench (the benchmark is an instrument, not a product), the exported
// declarations of the module's root package, every init, and `var _ =`
// assertions. A func, type, var or const is live when a live declaration
// mentions it (the members of one const group stand together: deleting one
// renumbers the rest); a method is live when mentioned, or when its receiver
// type is live and some interface of the program or its imports declares a
// method of that name, so dynamic dispatch never yields a finding. Anything
// else is a finding. Tests keep nothing alive: the loader does not type-check
// them, and a helper only _test.go files call belongs in one.
//
// `//rootlint:allow deadcode: <reason>` on the line above a declaration
// keeps it and makes it a root for what it mentions; the reason names the
// keeper — a file under bench/, another package's test, or the test that
// compares against it. An allow on a declaration that is live without it, or
// on no declaration at all, is itself a finding.
var Deadcode = &Analyzer{
	Name: "deadcode",
	Doc:  "reports package-level declarations that no binary reaches",
}

func init() {
	// Assigned in init to break the initialization cycle through Reportf.
	Deadcode.RunProgram = runDeadcode
}

// deadDecl is one package-level declaration: a node of the mention graph.
type deadDecl struct {
	name  *ast.Ident
	obj   types.Object // nil for `_` and init, which nothing can mention
	label string       // "func F", "method T.M", "type T", "var V", "const C"
	node  ast.Node     // the syntax whose identifiers are its mentions
	info  *types.Info
	root  bool
	allow bool        // carries a well-formed //rootlint:allow deadcode
	to    []*deadDecl // what it mentions
}

func runDeadcode(prog *Program) error {
	decls := make(map[types.Object]*deadDecl)
	var order []*deadDecl // declaration order, so walks and reports are deterministic
	for _, pkg := range prog.Packages {
		isMain := pkg.Pkg.Name() == "main"
		if isMain && path.Base(pkg.Path) == "bench" {
			continue // neither a root nor a subject
		}
		allows := prog.AllowsFor(pkg)
		declLines := make(map[string]map[int]bool) // file -> lines holding a declared name
		add := func(name *ast.Ident, kind string, node ast.Node) *deadDecl {
			d := &deadDecl{name: name, label: kind + " " + name.Name, node: node, info: pkg.Info}
			order = append(order, d)
			obj := pkg.Info.Defs[name]
			switch {
			case obj == nil || name.Name == "_" || kind == "func" && name.Name == "init":
				d.root = true // it runs, or asserts, by being there
				return d
			case isMain:
				d.root = kind == "func" && name.Name == "main"
			case pkg.Path == prog.module:
				d.root = kind != "method" && name.IsExported()
			}
			d.obj = obj
			if fn, ok := d.obj.(*types.Func); ok && kind == "method" {
				if recv := receiverTypeName(fn); recv != nil {
					d.label = "method " + recv.Name() + "." + name.Name
				}
			}
			pos := prog.Fset.Position(name.Pos())
			if declLines[pos.Filename] == nil {
				declLines[pos.Filename] = make(map[int]bool)
			}
			declLines[pos.Filename][pos.Line] = true
			d.allow = allows.Allowed(name.Pos(), "deadcode")
			decls[d.obj] = d
			return d
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv != nil {
						add(decl.Name, "method", decl)
					} else {
						add(decl.Name, "func", decl)
					}
				case *ast.GenDecl:
					var group []*deadDecl
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(spec.Name, "type", spec)
						case *ast.ValueSpec:
							for _, name := range spec.Names {
								group = append(group, add(name, decl.Tok.String(), spec))
							}
						}
					}
					if decl.Tok == token.CONST {
						for i, d := range group {
							d.to = append(d.to, group[(i+1)%len(group)])
						}
					}
				}
			}
		}
		for file, entries := range allows.entries {
			for _, e := range entries {
				if e.malformed == "" && slices.Contains(e.categories, "deadcode") &&
					!declLines[file][e.line] && !(e.standalone && declLines[file][e.line+1]) {
					prog.Reportf(Deadcode, e.pos, "//rootlint:allow deadcode sits on no package-level declaration")
				}
			}
		}
	}

	// The mention graph: a declaration points at every declaration its
	// syntax names, and a type at those of its methods an interface could
	// dispatch to.
	dispatch := interfaceMethodIDs(prog)
	for _, d := range order {
		if fn, ok := d.obj.(*types.Func); ok && dispatch[fn.Id()] {
			if recv := decls[receiverTypeName(fn)]; recv != nil {
				recv.to = append(recv.to, d)
			}
		}
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				obj := d.info.Uses[id]
				if fn, ok := obj.(*types.Func); ok {
					obj = fn.Origin() // a method of an instantiated generic type
				}
				if to := decls[obj]; to != nil {
					d.to = append(d.to, to)
				}
			}
			return true
		})
	}

	// reach marks what the roots, and the allowed declarations other than
	// skip, lead to.
	reach := func(skip *deadDecl) map[*deadDecl]bool {
		live := make(map[*deadDecl]bool)
		var visit func(d *deadDecl)
		visit = func(d *deadDecl) {
			if !live[d] {
				live[d] = true
				for _, to := range d.to {
					visit(to)
				}
			}
		}
		for _, d := range order {
			if d.root || d.allow && d != skip {
				visit(d)
			}
		}
		return live
	}
	live := reach(nil)
	for _, d := range order {
		switch {
		case !live[d]:
			prog.Reportf(Deadcode, d.name.Pos(), "%s is dead: no main, root-package API or allowed declaration reaches it (tests keep nothing alive)", d.label)
		case d.allow && reach(d)[d]:
			prog.Reportf(Deadcode, d.name.Pos(), "stale //rootlint:allow deadcode: %s is live without it", d.label)
		}
	}
	return nil
}

// receiverTypeName returns the declared type a method is attached to (nil
// for a function, or a receiver that is not a defined type).
func receiverTypeName(fn *types.Func) types.Object {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// interfaceMethodIDs collects the (*types.Func).Id of every method an
// interface type declares: the named interfaces of every package the program
// loads or imports, transitively, and the interface literals in its syntax.
func interfaceMethodIDs(prog *Program) map[string]bool {
	ids := make(map[string]bool)
	addIface := func(t types.Type) {
		if iface, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumMethods(); i++ {
				ids[iface.Method(i).Id()] = true
			}
		}
	}
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range prog.Packages {
		visit(pkg.Pkg)
		for expr, tv := range pkg.Info.Types {
			if _, ok := expr.(*ast.InterfaceType); ok {
				addIface(tv.Type)
			}
		}
	}
	return ids
}

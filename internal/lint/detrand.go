package lint

import (
	"go/ast"
	"go/types"
)

// Detrand forbids wall-clock reads and process-global randomness in the
// simulation and analysis packages. Every report the campaign engine emits
// is pinned byte-identical across worker counts and resumes; one stray
// time.Now() or global rand.Intn() silently breaks that contract in a way
// example-based tests only catch when they happen to cover the call site.
//
// Flagged, unless suppressed by //rootlint:allow on the call site:
//
//   - time.Now / time.Since (category "wallclock") — including uses as
//     function values, which is how a wall clock usually sneaks into a
//     default field;
//   - any math/rand function drawing from the package-global source —
//     rand.Intn, rand.Int63, rand.Perm, rand.Seed, ... (category
//     "globalrand"). Constructing an explicitly seeded generator
//     (rand.New, rand.NewSource) stays legal; seeding it from the wall
//     clock is caught by the time.Now rule.
//
// Package main is out of scope (CLIs legitimately report wall time), as is
// the lint tree itself.
var Detrand = &Analyzer{
	Name: "detrand",
	Doc:  "forbids wall-clock time and unseeded randomness in simulation/analysis packages",
	Run:  runDetrand,
}

// detrandSeededConstructors are the math/rand functions that build an
// explicitly seeded generator rather than drawing from the global source.
var detrandSeededConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

func runDetrand(pass *Pass) error {
	if pass.Pkg == nil || pass.Pkg.Name() == "main" || pass.Pkg.Name() == "lint" {
		return nil
	}
	allows := pass.allows()
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pkgNameOf(pass.Info, ident)
			if !ok {
				return true
			}
			obj := pass.Info.Uses[sel.Sel]
			if obj == nil {
				return true
			}
			if _, isType := obj.(*types.TypeName); isType {
				return true // rand.Rand, time.Time, ... are fine
			}
			switch pn.Imported().Path() {
			case "time":
				if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
					if !allows.Allowed(sel.Pos(), "wallclock") {
						pass.Reportf(sel.Pos(),
							"time.%s reads the wall clock in a simulation package; inject a clock or annotate with //rootlint:allow wallclock: <reason>",
							sel.Sel.Name)
					}
				}
			case "math/rand", "math/rand/v2":
				if _, isFunc := obj.(*types.Func); !isFunc {
					return true
				}
				if detrandSeededConstructors[sel.Sel.Name] {
					return true
				}
				if !allows.Allowed(sel.Pos(), "globalrand") {
					pass.Reportf(sel.Pos(),
						"rand.%s draws from math/rand's process-global source; use an explicitly seeded *rand.Rand or annotate with //rootlint:allow globalrand: <reason>",
						sel.Sel.Name)
				}
			}
			return true
		})
	}
	return nil
}

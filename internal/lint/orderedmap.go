package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Orderedmap flags `range` over a map whose loop body writes into an
// order-sensitive sink — an io.Writer, hash.Hash, encoder, string builder,
// or one of the campaign's event handlers — or draws from a seeded
// generator: a method on a *math/rand.Rand, or on a value whose struct holds
// one (a builder placing sites from its Rng). Go randomizes map iteration
// order per run, so such a loop produces output that differs between two
// executions of the same binary on the same input: exactly the class of
// bug that silently breaks the repo's byte-identical report, dataset, and
// checkpoint guarantees, and the hardest to catch by example tests because
// any single run looks plausible.
//
// The fix is almost always to extract and sort the keys first; when the
// sink is genuinely order-insensitive, annotate the range statement with
// //rootlint:allow maporder: <reason>.
var Orderedmap = &Analyzer{
	Name: "orderedmap",
	Doc:  "flags map iteration whose body writes to an order-sensitive sink",
	Run:  runOrderedmap,
}

// orderedSinkMethods are method names whose invocation inside a map-range
// body implies order-dependent output.
var orderedSinkMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "AppendRecord": true,
	"HandleProbe": true, "HandleTransfer": true,
}

// orderedSinkFuncs are package-level functions (by import path and name)
// that emit to a writer argument.
var orderedSinkFuncs = map[string]map[string]bool{
	"fmt":             {"Fprint": true, "Fprintf": true, "Fprintln": true},
	"encoding/binary": {"Write": true},
	"io":              {"WriteString": true, "Copy": true},
}

func runOrderedmap(pass *Pass) error {
	allows := pass.allows()
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.Info.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if allows.Allowed(rng.Pos(), "maporder") {
				return true
			}
			if pos, desc, found := findSinkWrite(pass, rng.Body); found {
				pass.Reportf(pos,
					"%s inside a map range: iteration order is randomized, so output differs run to run; sort the keys first or annotate the range with //rootlint:allow maporder: <reason>",
					desc)
			}
			return true
		})
	}
	return nil
}

// findSinkWrite scans a range body for the first order-sensitive write.
// Nested ranges are left to their own RangeStmt visit.
func findSinkWrite(pass *Pass, body *ast.BlockStmt) (token.Pos, string, bool) {
	var pos token.Pos
	var desc string
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, isRange := n.(*ast.RangeStmt); isRange && n.Pos() != body.Pos() {
			return false // inner map ranges report for themselves
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		// Package-level emitters: fmt.Fprintf(w, ...), binary.Write(w, ...).
		if ident, isIdent := sel.X.(*ast.Ident); isIdent {
			if pn, isPkg := pkgNameOf(pass.Info, ident); isPkg {
				if funcs := orderedSinkFuncs[pn.Imported().Path()]; funcs[sel.Sel.Name] {
					pos, desc, found = call.Pos(), pn.Name()+"."+sel.Sel.Name+" writes", true
					return false
				}
				return true // other selector on a package: not a method call
			}
		}
		// Method calls on a sink value: w.Write, h.Sum is excluded (pure),
		// enc.Encode, sb.WriteString, handler.HandleProbe, ...; or on a
		// seeded generator: rng.Intn, b.PlaceSites with b.Rng, ...
		if selInfo, ok := pass.Info.Selections[sel]; ok && selInfo.Kind() == types.MethodVal {
			switch {
			case orderedSinkMethods[sel.Sel.Name]:
				pos, desc, found = call.Pos(), "method "+sel.Sel.Name+" writes", true
			case holdsRand(selInfo.Recv()):
				pos, desc, found = call.Pos(), "method "+sel.Sel.Name+" draws from a seeded generator", true
			}
		}
		return !found
	})
	return pos, desc, found
}

// holdsRand reports whether t is a *math/rand.Rand, or a struct (or a
// pointer to one) with a *math/rand.Rand field.
func holdsRand(t types.Type) bool {
	isRand := func(t types.Type) bool { return types.TypeString(t, nil) == "*math/rand.Rand" }
	if p, ok := t.(*types.Pointer); ok && !isRand(t) {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	for i := 0; ok && i < st.NumFields(); i++ {
		if isRand(st.Field(i).Type()) {
			return true
		}
	}
	return isRand(t)
}

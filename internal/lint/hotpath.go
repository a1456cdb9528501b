package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotpath enforces the zero-alloc contract on functions whose doc comment
// carries //rootlint:hotpath — the PR 2 fast paths (Message.AppendPack, the
// canonical-sidecar builders, LossModel.Lost, AXFR framing) whose
// allocations-per-op are pinned by benchmarks. The benchmarks catch a
// regression's symptom; this analyzer names the construct that caused it:
//
//   - fmt.Sprintf / fmt.Errorf / fmt.Sprint / fmt.Sprintln — always
//     allocate, and usually smuggle in interface boxing too;
//   - rand.New / rand.NewSource (and math/rand/v2's New, NewPCG,
//     NewChaCha8) — allocate a generator and seed its whole state to draw a
//     handful of numbers; a per-call draw is seeded.Draw over (key, index);
//   - make(map...) and map composite literals — a table built per call, then
//     hashed into; a small dense key space (a VP index, one of 28 targets)
//     is a slice indexed by it, and a handful of entries a reused slice
//     searched linearly;
//   - string concatenation inside a loop — each + re-allocates the
//     accumulated string;
//   - a closure that captures enclosing variables and escapes (assigned,
//     passed, deferred, or returned rather than immediately invoked) —
//     the captured variables move to the heap;
//   - append whose base operand is a freshly allocated slice
//     (append(make([]T, 0), ...), append([]T{}, ...), append([]byte(s),
//     ...)) — guarantees a fresh backing array per call instead of reusing
//     a pooled or caller-provided buffer;
//   - a method value (x.M used as a value rather than called) — each
//     evaluation allocates a closure binding the receiver;
//   - append whose base operand is returned by a method called through an
//     interface receiver — the implementation is unknown at the call site,
//     so the compiler can neither inline it nor prove the returned slice
//     reusable, and escape analysis heap-allocates what it returns.
//
// Cold paths inside a hot function (error returns that fire once per
// process, build-once construction guarded by sync.Once-style flags) are
// annotated //rootlint:allow hotpath: <reason> at the call site.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "reports allocation-prone constructs in functions marked //rootlint:hotpath",
	Run:  runHotpath,
}

var hotpathFmtAllocs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true,
}

var hotpathRandCtors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true,
}

func runHotpath(pass *Pass) error {
	allows := pass.allows()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !funcHasDirective(fd, "hotpath") {
				continue
			}
			checkHotFunc(pass, allows, fd)
		}
	}
	return nil
}

func checkHotFunc(pass *Pass, allows *Allows, fd *ast.FuncDecl) {
	report := func(pos token.Pos, format string, args ...any) {
		if !allows.Allowed(pos, "hotpath") {
			pass.Reportf(pos, format, args...)
		}
	}

	// Walk with an explicit stack so loop nesting and closure parenthood are
	// known at every node.
	var stack []ast.Node
	inLoop := func() bool {
		for _, n := range stack {
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				return true
			}
		}
		return false
	}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, report, fd, x)
		case *ast.CompositeLit:
			if isMapType(pass.Info, x) {
				report(x.Pos(), "%s: map literal allocates a hash table per call; index a dense table or search a reused slice", fd.Name.Name)
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && inLoop() && isStringExpr(pass.Info, x) {
				report(x.OpPos, "%s: string concatenation in a loop allocates per iteration; use a preallocated buffer", fd.Name.Name)
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && inLoop() && len(x.Lhs) == 1 && isStringExpr(pass.Info, x.Lhs[0]) {
				report(x.TokPos, "%s: string concatenation in a loop allocates per iteration; use a preallocated buffer", fd.Name.Name)
			}
		case *ast.FuncLit:
			if capturesOuter(pass, fd, x) && !immediatelyInvoked(stack, x) {
				report(x.Pos(), "%s: closure captures enclosing variables and escapes; captured variables are forced to the heap", fd.Name.Name)
			}
		case *ast.SelectorExpr:
			if sel, ok := pass.Info.Selections[x]; ok && sel.Kind() == types.MethodVal && !isCallFun(stack, x) {
				report(x.Pos(), "%s: method value %s allocates a bound-method closure per evaluation; call the method directly or hoist the binding off the hot path", fd.Name.Name, types.ExprString(x))
			}
		}
		stack = append(stack, n)
		ast.Inspect(n, func(child ast.Node) bool {
			if child == nil || child == n {
				return child == n
			}
			walk(child)
			return false
		})
		stack = stack[:len(stack)-1]
	}
	walk(fd.Body)
}

func checkHotCall(pass *Pass, report func(token.Pos, string, ...any), fd *ast.FuncDecl, call *ast.CallExpr) {
	// fmt.Sprintf and friends, and generator constructors.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if ident, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := pkgNameOf(pass.Info, ident); ok {
				switch path := pn.Imported().Path(); {
				case path == "fmt" && hotpathFmtAllocs[sel.Sel.Name]:
					report(call.Pos(), "%s: fmt.%s allocates on every call; hot paths must format into reused buffers or return sentinel errors", fd.Name.Name, sel.Sel.Name)
				case (path == "math/rand" || path == "math/rand/v2") && hotpathRandCtors[sel.Sel.Name]:
					report(call.Pos(), "%s: rand.%s allocates and seeds a generator on every call; draw with seeded.Draw over (key, index) instead", fd.Name.Name, sel.Sel.Name)
				}
			}
		}
	}
	// append onto a freshly allocated slice, and make of a map.
	if ident, ok := call.Fun.(*ast.Ident); ok && len(call.Args) > 0 {
		if obj, isBuiltin := pass.Info.Uses[ident].(*types.Builtin); isBuiltin {
			switch obj.Name() {
			case "append":
				if reason, fresh := freshSliceExpr(pass.Info, call.Args[0]); fresh {
					report(call.Pos(), "%s: append onto %s allocates a fresh backing array per call; reuse a pooled or caller-provided slice", fd.Name.Name, reason)
				}
			case "make":
				if isMapType(pass.Info, call.Args[0]) {
					report(call.Pos(), "%s: make(map) allocates a hash table per call; index a dense table or search a reused slice", fd.Name.Name)
				}
			}
		}
	}
}

// isMapType reports whether e — a composite literal, or make's type operand —
// has a map type.
func isMapType(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// freshSliceExpr reports whether e unavoidably allocates a new slice right at
// the append site.
func freshSliceExpr(info *types.Info, e ast.Expr) (string, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return "a slice literal", true
	case *ast.CallExpr:
		if ident, ok := x.Fun.(*ast.Ident); ok {
			if b, isBuiltin := info.Uses[ident].(*types.Builtin); isBuiltin && b.Name() == "make" {
				return "make(...)", true
			}
		}
		// Conversions like []byte(s): Fun is a type expression.
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
			if _, isSlice := tv.Type.Underlying().(*types.Slice); isSlice {
				// []T(nil)-style conversions of an untyped nil never copy.
				if len(x.Args) == 1 {
					if argTV, ok := info.Types[x.Args[0]]; ok && argTV.IsNil() {
						return "", false
					}
				}
				return "a slice conversion", true
			}
		}
		// A slice returned by a method dispatched through an interface: the
		// implementation behind the call is unknown, so the result must be
		// assumed freshly heap-allocated.
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
			if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal && types.IsInterface(s.Recv()) {
				return "a slice returned through an interface method", true
			}
		}
	}
	return "", false
}

// isCallFun reports whether e is the function operand of its nearest
// enclosing call — x.M() dispatches directly, while a bare x.M binds.
func isCallFun(stack []ast.Node, e ast.Expr) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.CallExpr:
			return ast.Unparen(parent.Fun) == e
		default:
			return false
		}
	}
	return false
}

func isStringExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// capturesOuter reports whether lit references a variable declared in fd but
// outside lit itself.
func capturesOuter(pass *Pass, fd *ast.FuncDecl, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		ident, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		obj, ok := pass.Info.Uses[ident].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		pos := obj.Pos()
		if pos >= fd.Pos() && pos < fd.End() && !(pos >= lit.Pos() && pos < lit.End()) {
			captured = true
		}
		return true
	})
	return captured
}

// immediatelyInvoked reports whether lit's direct parent is a call whose
// function operand is lit itself: func(){...}() does not escape.
func immediatelyInvoked(stack []ast.Node, lit *ast.FuncLit) bool {
	if len(stack) == 0 {
		return false
	}
	for i := len(stack) - 1; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.CallExpr:
			return ast.Unparen(parent.Fun) == lit
		default:
			return false
		}
	}
	return false
}

// Package lib holds one declaration per deadcode rule.
package lib

// Used is called by cmd/tool's main.
func Used() { usedHelper() }

func usedHelper() {}

// FromAPI is called by the root package's exported API.
func FromAPI() {}

func unreachable() {} // want "func unreachable is dead"

// OnlyTested is called by lib_test.go and nothing else: tests keep nothing
// alive.
func OnlyTested() {} // want "func OnlyTested is dead"

// A type only a dead func mentions is dead with it.
type onlyViaDead struct{} // want "type onlyViaDead is dead"

func deadUser() onlyViaDead { return onlyViaDead{} } // want "func deadUser is dead"

// Namer is an interface of the program: its method name keeps every live
// type's method of that name, called or not.
type Namer interface{ Name() string }

// Live is named by main. Nothing calls Name directly; dynamic dispatch could.
type Live struct{}

func (Live) Name() string { return "live" }

func (Live) neverCalled() {} // want "method Live.neverCalled is dead"

// A dead type's methods are dead whatever they are called.
type deadType struct{} // want "type deadType is dead"

func (deadType) Name() string { return "dead" } // want "method deadType.Name is dead"

// Generics are reached through their instantiations.
func Map[T any](xs []T, f func(T) T) []T {
	for i := range xs {
		xs[i] = f(xs[i])
	}
	return xs
}

type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }

func (b Box[T]) Unwrap2() T { return b.v } // want "method Box.Unwrap2 is dead"

// An interface assertion is a root: the type lives, and the interface's
// method name keeps the method.
type asserted struct{}

func (*asserted) Name() string { return "asserted" }

var _ Namer = (*asserted)(nil)

// init runs by being there.
func init() { fromInit() }

func fromInit() {}

// OnlyBench is called by bench/main.go alone.
func OnlyBench() {} // want "func OnlyBench is dead"

// PinnedByBench is kept by a reasoned allow, and is a root for its helper.
//
//rootlint:allow deadcode: bench/main.go calls it
func PinnedByBench() { pinnedHelper() }

func pinnedHelper() {}

// An allow without a reason is the directive analyzer's finding and
// suppresses nothing here.
//
//rootlint:allow deadcode
func noReason() {} // want "func noReason is dead"

// StaleAllow is called by main: the allow keeps nothing.
//
//rootlint:allow deadcode: main calls it now
func StaleAllow() {} // want "stale //rootlint:allow deadcode: func StaleAllow is live without it"

type holder struct { // want "type holder is dead"
	//rootlint:allow deadcode: a field is not a declaration // want "sits on no package-level declaration"
	field int
}

// The members of a const group stand together; a lone const does not.
const (
	KindA = iota
	KindB
	KindC
)

const lonely = 1 // want "const lonely is dead"

var unreadVar = 2 // want "var unreadVar is dead"

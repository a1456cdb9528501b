// Command tool is a binary: main and init are roots, nothing else in the
// package is.
package main

import "deadcode/lib"

func main() {
	lib.Used()
	lib.StaleAllow()
	var n lib.Namer = lib.Live{}
	_ = n
	_ = lib.Map([]int{1}, func(i int) int { return i })
	_ = lib.Box[int]{}.Get()
	_ = lib.KindA
	reached()
}

func reached() {}

func helper() {} // want "func helper is dead"

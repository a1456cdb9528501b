// Command bench is the benchmark: a main in a directory named bench keeps
// nothing alive, and nothing in it is reported.
package main

import "deadcode/lib"

func main() {
	lib.OnlyBench()
	lib.PinnedByBench()
}

func unusedInBench() {}

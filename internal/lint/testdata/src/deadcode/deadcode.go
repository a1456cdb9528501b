// Package deadcode is the fixture module's root package: its exported
// declarations are the library's API, and so roots.
package deadcode

import "deadcode/lib"

// API is exported from the root package: a root, and what it mentions lives.
func API() { lib.FromAPI() }

func unexportedInRoot() {} // want "func unexportedInRoot is dead"

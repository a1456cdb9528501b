// A second file in the same package: the analyzer and the fixture harness
// must handle wants and bodies across files in one run.
package a

func evictOne(c *cache, k string) {
	delete(c.entries, k) // want "write of cache.entries requires c.mu held"
}

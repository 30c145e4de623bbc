package core

// Test hooks exposing internals to the external test package.

// RouterTablesForTest counts the router shards whose tables hold storage.
func RouterTablesForTest(c *Controller) int {
	n := 0
	for i := range c.router.shards {
		sh := &c.router.shards[i]
		sh.mu.Lock()
		if sh.keys != nil || sh.orphans != nil {
			n++
		}
		sh.mu.Unlock()
	}
	return n
}

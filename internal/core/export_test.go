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

// FreeReplyDepthsForTest returns the capacity of every channel on the named
// middlebox connection's reply free list.
func FreeReplyDepthsForTest(c *Controller, name string) []int {
	mb, err := c.mb(name)
	if err != nil {
		return nil
	}
	mb.mu.Lock()
	defer mb.mu.Unlock()
	depths := make([]int, len(mb.chanFree))
	for i, ch := range mb.chanFree {
		depths[i] = cap(ch)
	}
	return depths
}

package sdn

// Test hooks: observers only the package's own tests read.

// Updates returns the number of Route/Unroute operations performed.
func (c *Controller) Updates() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.updates
}

package sbi

// Test hooks: observers only the package's own tests read.

// Codec returns the connection's current codec.
func (c *Conn) Codec() Codec {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	return c.codec.name()
}

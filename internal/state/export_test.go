package state

// Test hooks: observers only the package's own tests read.

// Version returns the mutation counter.
func (t *ConfigTree) Version() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

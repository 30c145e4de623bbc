package re

// Test hooks: observers only the package's own tests read.

// CacheCount returns the number of per-decoder caches.
func (e *Encoder) CacheCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dirty {
		e.applyConfigLocked()
	}
	return len(e.caches)
}

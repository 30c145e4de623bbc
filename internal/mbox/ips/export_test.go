package ips

import "openmb/internal/packet"

// Test hooks: observers only the package's own tests read.

// Connection returns a copy of the live connection for key, if present.
func (i *IPS) Connection(key packet.FlowKey) (Conn, bool) {
	i.Lock()
	defer i.Unlock()
	id, _ := key.Canonical().ID()
	conn, ok := i.Get(id)
	if !ok {
		return Conn{}, false
	}
	cp := *conn
	return cp, true
}

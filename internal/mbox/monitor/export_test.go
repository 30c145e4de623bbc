package monitor

import "openmb/internal/packet"

// Test hooks: observers only the package's own tests read.

// FlowRecord returns a copy of the record for key, if present.
func (m *Monitor) FlowRecord(key packet.FlowKey) (connRecord, bool) {
	m.Lock()
	defer m.Unlock()
	id, _ := key.Canonical().ID()
	rec, ok := m.Get(id)
	if !ok {
		return connRecord{}, false
	}
	return *rec, true
}

package netsim

import "openmb/internal/packet"

// Test hooks: observers only the package's own tests read.

// Reset clears the recorded packets and count. Records are host-owned
// copies (see HandleBurst), so there are no pool references to return —
// dropping them is enough.
func (h *Host) Reset() {
	h.mu.Lock()
	h.received = nil
	h.count = 0
	h.mu.Unlock()
}

// Packets returns how many packets have matched this rule.
func (r *InstalledRule) Packets() uint64 { return r.packets.Load() }

// TableMisses returns the count of packets that matched no rule.
func (s *Switch) TableMisses() uint64 { return s.tableMisses.Load() }

// Forwarded returns the count of packet forwards (one per output port).
func (s *Switch) Forwarded() uint64 { return s.forwarded.Load() }

// Send transmits a packet from h toward a connected neighbor.
func (h *Host) Send(to string, p *packet.Packet) error { return h.net.Send(h.name, to, p) }

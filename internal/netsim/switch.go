package netsim

import (
	"sort"
	"sync"
	"sync/atomic"

	"openmb/internal/packet"
)

// Rule specifies one flow-table entry. Higher priority wins; among equal
// priorities, the most recently installed entry wins (matching common switch
// behaviour for exact replacements). A rule may output to several ports
// (used to mirror traffic to a standby middlebox in the failure-recovery
// scenario).
type Rule struct {
	// ID identifies the rule for removal; the SDN controller assigns it.
	ID       string
	Priority int
	Match    packet.FieldMatch
	// OutPorts names neighbor endpoints to forward to. Empty means drop.
	OutPorts []string
}

// InstalledRule is a Rule resident in a flow table, with match statistics.
type InstalledRule struct {
	Rule
	match   packet.IDMatch // Rule.Match, lowered at install
	packets atomic.Uint64
}

// Packets returns how many packets have matched this rule.
func (r *InstalledRule) Packets() uint64 { return r.packets.Load() }

// Switch is a software switch with a priority flow table. The zero value is
// not usable; create with NewSwitch and attach to a Network.
type Switch struct {
	name string
	net  *Network

	mu    sync.RWMutex
	rules []*InstalledRule // sorted: priority desc, insertion order desc

	tableMisses atomic.Uint64
	forwarded   atomic.Uint64
	seq         uint64
}

// NewSwitch creates a switch and attaches it to the network under name.
func NewSwitch(n *Network, name string) *Switch {
	s := &Switch{name: name, net: n}
	n.Attach(name, s)
	return s
}

// Name returns the switch's network name.
func (s *Switch) Name() string { return s.name }

// Install adds a rule to the flow table and returns the installed entry. If
// r.ID is empty a unique one is generated.
func (s *Switch) Install(r Rule) *InstalledRule {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	if r.ID == "" {
		r.ID = s.name + "-rule-" + itoa(s.seq)
	}
	nr := &InstalledRule{
		Rule:  Rule{ID: r.ID, Priority: r.Priority, Match: r.Match, OutPorts: append([]string(nil), r.OutPorts...)},
		match: r.Match.ForID(),
	}
	s.rules = append(s.rules, nr)
	// Stable sort by priority desc; equal priorities keep insertion order,
	// and lookup scans from the end of each priority class so newer wins.
	sort.SliceStable(s.rules, func(i, j int) bool { return s.rules[i].Priority > s.rules[j].Priority })
	return nr
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// Remove deletes the rule with the given ID. It reports whether a rule was
// removed.
func (s *Switch) Remove(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, r := range s.rules {
		if r.ID == id {
			s.rules = append(s.rules[:i], s.rules[i+1:]...)
			return true
		}
	}
	return false
}

// Rules returns a snapshot of the flow table in match order.
func (s *Switch) Rules() []*InstalledRule {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]*InstalledRule(nil), s.rules...)
}

// TableMisses returns the count of packets that matched no rule.
func (s *Switch) TableMisses() uint64 { return s.tableMisses.Load() }

// Forwarded returns the count of packet forwards (one per output port).
func (s *Switch) Forwarded() uint64 { return s.forwarded.Load() }

// classifyLocked scans the flow table for the winning rule (priority desc;
// within a priority class the most recently installed matching rule wins).
// Caller holds mu for read.
func (s *Switch) classifyLocked(flow packet.FlowID) *InstalledRule {
	var hit *InstalledRule
	for i := 0; i < len(s.rules); i++ {
		r := s.rules[i]
		if hit != nil && r.Priority < hit.Priority {
			break
		}
		if r.match.Match(flow) {
			hit = r // later entries at same priority overwrite
		}
	}
	return hit
}

// forwardHit applies one classification verdict: forward (mirror ports get
// clones), drop on an empty port list, or release on a miss. It owns p's
// reference and the rule/miss statistics for this packet.
func (s *Switch) forwardHit(hit *InstalledRule, p *packet.Packet) {
	if hit == nil || len(hit.OutPorts) == 0 {
		if hit != nil {
			hit.packets.Add(1)
		} else {
			s.tableMisses.Add(1)
		}
		p.Release()
		return
	}
	hit.packets.Add(1)
	if len(hit.OutPorts) == 1 {
		s.sendOut(hit.OutPorts[0], p)
		return
	}
	// Mirror copies are cloned before any send: sending transfers
	// ownership of p, and a pooled p may be recycled by its receiver
	// before a later Clone would run.
	outs := make([]*packet.Packet, len(hit.OutPorts))
	outs[0] = p
	for i := 1; i < len(outs); i++ {
		outs[i] = p.Clone()
	}
	for i, port := range hit.OutPorts {
		s.sendOut(port, outs[i])
	}
}

// HandleBurst implements Endpoint: the whole batch is classified under one
// flow-table read lock (within a priority class the most recently installed
// matching rule wins), then forwarded with runs of consecutive packets that
// matched the same single-port rule sent downstream as one SendBurst — one
// link synchronization per run instead of one per packet. Misses, drops,
// and mirror rules take the per-packet verdict path: the borrowed reference
// is passed on with the forwarded packet (mirror ports get clones) or
// released on a table miss.
func (s *Switch) HandleBurst(ps []*packet.Packet) {
	for len(ps) > 0 {
		n := len(ps)
		if n > ringBatch {
			n = ringBatch
		}
		s.burstChunk(ps[:n])
		ps = ps[n:]
	}
}

func (s *Switch) burstChunk(ps []*packet.Packet) {
	var hits [ringBatch]*InstalledRule
	s.mu.RLock()
	for i, p := range ps {
		hits[i] = s.classifyLocked(p.FlowID())
	}
	s.mu.RUnlock()
	for i := 0; i < len(ps); {
		hit := hits[i]
		if hit == nil || len(hit.OutPorts) != 1 {
			s.forwardHit(hit, ps[i])
			i++
			continue
		}
		j := i + 1
		for j < len(ps) && hits[j] == hit {
			j++
		}
		hit.packets.Add(uint64(j - i))
		if err := s.net.SendBurst(s.name, hit.OutPorts[0], ps[i:j]); err != nil {
			// Same accounting as sendOut: a send into a dead or missing
			// link loses the packets, observed as table-level drops.
			s.tableMisses.Add(uint64(j - i))
		} else {
			s.forwarded.Add(uint64(j - i))
		}
		i = j
	}
}

// sendOut forwards one packet (consuming its reference) and keeps the
// forwarding statistics.
func (s *Switch) sendOut(port string, p *packet.Packet) {
	if err := s.net.Send(s.name, port, p); err != nil {
		// Forwarding to a detached port mirrors a real switch sending
		// into a dead link: the packet is lost, which the experiments
		// observe as a table-level drop.
		s.tableMisses.Add(1)
		return
	}
	s.forwarded.Add(1)
}

// Host is a terminal endpoint. It records received packets (bounded) and
// optionally invokes a callback per packet.
type Host struct {
	name string
	net  *Network

	// OnPacket, if non-nil, runs for every delivered packet before it is
	// recorded. Set it before traffic starts. The packet is the live
	// borrow: it may be pooled and recycled the moment HandleBurst
	// disposes of it, so the callback must not retain it or any of its
	// slices past its return. Callbacks that keep packets (queues,
	// assertions resolved later) should use OnPacketCopy.
	OnPacket func(p *packet.Packet)

	// OnPacketCopy, if non-nil, runs for every delivered packet with a
	// detached heap copy — always safe to retain, at the cost of one copy
	// per delivery. Set it before traffic starts. When both hooks are set,
	// OnPacket runs first (on the live borrow), then OnPacketCopy (on the
	// copy).
	OnPacketCopy func(p *packet.Packet)

	mu       sync.Mutex
	received []*packet.Packet
	limit    int
	count    uint64
}

// NewHost creates a host endpoint attached under name. It retains up to
// limit received packets (0 means 65536).
func NewHost(n *Network, name string, limit int) *Host {
	if limit == 0 {
		limit = 65536
	}
	h := &Host{name: name, net: n, limit: limit}
	n.Attach(name, h)
	return h
}

// Name returns the host's network name.
func (h *Host) Name() string { return h.name }

// HandleBurst implements Endpoint: it records the packets and disposes of
// the borrows. Pooled packets are copied out — a detached heap copy goes
// into the record and the original returns to its pool immediately — so a
// recording host never pins pool capacity for its own lifetime (heap packets
// are recorded as-is; nothing else owns them and their Release is a no-op).
// Packets beyond the record limit are counted and released. The hooks run
// per packet; the record/count bookkeeping takes the host lock once per
// burst.
func (h *Host) HandleBurst(ps []*packet.Packet) {
	if h.OnPacket != nil || h.OnPacketCopy != nil {
		for _, p := range ps {
			if h.OnPacket != nil {
				h.OnPacket(p)
			}
			if h.OnPacketCopy != nil {
				h.OnPacketCopy(p.CloneDetached())
			}
		}
	}
	h.mu.Lock()
	for _, p := range ps {
		h.count++
		if len(h.received) >= h.limit {
			p.Release()
			continue
		}
		rec := p
		if p.Pooled() {
			rec = p.CloneDetached()
		}
		h.received = append(h.received, rec)
		if rec != p {
			p.Release()
		}
	}
	h.mu.Unlock()
}

// Send transmits a packet toward a connected neighbor.
func (h *Host) Send(to string, p *packet.Packet) error { return h.net.Send(h.name, to, p) }

// Received returns a snapshot of recorded packets. The records are owned by
// the host (pooled deliveries were copied out at arrival), so callers may
// inspect them without reference bookkeeping.
func (h *Host) Received() []*packet.Packet {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*packet.Packet(nil), h.received...)
}

// Count returns the total packets delivered (including beyond the record
// limit).
func (h *Host) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Reset clears the recorded packets and count. Records are host-owned
// copies (see HandleBurst), so there are no pool references to return —
// dropping them is enough.
func (h *Host) Reset() {
	h.mu.Lock()
	h.received = nil
	h.count = 0
	h.mu.Unlock()
}

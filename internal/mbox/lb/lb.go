// Package lb implements a Balance-like TCP load balancer (§4.1.2 of the
// paper). Its defining property for OpenMB is its keying granularity:
// "Balance only maintains a chunk of per-flow state based on source IP/port,
// since the destination IP/port is the same for all connections, namely, the
// IP/port of the load balancer." Requests for per-flow state at a finer
// granularity than that — any match constraining destination fields — return
// an error, per the southbound API contract.
//
// The balancer also demonstrates introspection: it raises "lb.assigned"
// events when a new flow is bound to a backend, carrying the chosen server
// in the event values — the paper's running example of event payloads.
package lb

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"sync"

	"openmb/internal/mbox"
	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/state"
)

// Kind is the middlebox type name.
const Kind = "lb"

var _ mbox.Logic = (*LB)(nil)

// Backend is one load-balanced server.
type Backend struct {
	IP   netip.Addr
	Port uint16
}

// String renders "ip:port".
func (b Backend) String() string { return fmt.Sprintf("%s:%d", b.IP, b.Port) }

// ParseBackend parses "ip:port".
func ParseBackend(s string) (Backend, error) {
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return Backend{}, fmt.Errorf("lb: backend %q: missing port", s)
	}
	ip, err := netip.ParseAddr(s[:i])
	if err != nil {
		return Backend{}, fmt.Errorf("lb: backend %q: %w", s, err)
	}
	port, err := strconv.Atoi(s[i+1:])
	if err != nil || port <= 0 || port > 65535 {
		return Backend{}, fmt.Errorf("lb: backend %q: bad port", s)
	}
	return Backend{IP: ip, Port: uint16(port)}, nil
}

// assignment is the per-flow supporting state: which backend serves a
// source endpoint.
type assignment struct {
	Backend Backend
	// Packets counts forwarded packets (useful for rebalancing
	// decisions; carried along on moves).
	Packets uint64
}

// LB is the middlebox logic. It implements mbox.Logic.
type LB struct {
	mu sync.Mutex
	// assigns is keyed by source endpoint only (FlowID.SrcEndpoint): dst
	// fields zero, on both sides of a move.
	assigns  map[packet.FlowID]*assignment
	backends []Backend
	rr       int
	vip      netip.Addr
	vipPort  uint16
	config   *state.ConfigTree
	dirty    bool
}

// New returns a load balancer fronting vip:vipPort with the given backends.
func New(vip netip.Addr, vipPort uint16, backends []Backend) *LB {
	l := &LB{
		assigns:  map[packet.FlowID]*assignment{},
		backends: append([]Backend(nil), backends...),
		vip:      vip,
		vipPort:  vipPort,
		config:   state.NewConfigTree(),
	}
	values := make([]string, len(backends))
	for i, b := range backends {
		values[i] = b.String()
	}
	if err := l.config.Set("backends", values); err != nil {
		panic("lb: default config: " + err.Error())
	}
	l.config.Watch(func(string) {
		l.mu.Lock()
		l.dirty = true
		l.mu.Unlock()
	})
	return l
}

// Kind implements mbox.Logic.
func (l *LB) Kind() string { return Kind }

func (l *LB) applyConfigLocked() {
	l.dirty = false
	v, err := l.config.Get("backends")
	if err != nil {
		return
	}
	backends := make([]Backend, 0, len(v))
	for _, s := range v {
		b, err := ParseBackend(s)
		if err != nil {
			return // keep the old set on a malformed update
		}
		backends = append(backends, b)
	}
	l.backends = backends
	if l.rr >= len(backends) {
		l.rr = 0
	}
}

// lbRaise is one deferred "lb.assigned" raise from a burst: raises must run
// outside l.mu, so ProcessBurst collects them under the lock and replays
// them after it in packet order.
type lbRaise struct {
	idx     int
	key     packet.FlowID
	backend Backend
}

// ProcessBurst implements mbox.Logic: bind new flows round-robin and rewrite
// the destination to the assigned backend. One mutex acquisition and at most
// one config re-parse cover the whole burst, and consecutive packets from the
// same source endpoint reuse the last assignment lookup. Emits are buffered
// by the runtime, so they are appended in-loop under the lock in packet
// order. The destination is rewritten through ctx.Rewrite after the packet's
// Touch: in place when the runtime's borrow is the only reference and no
// reprocess event needs the original.
func (l *LB) ProcessBurst(ctxs []mbox.Context, pkts []*packet.Packet) {
	var raises []lbRaise
	var lastKey packet.FlowID
	var lastA *assignment
	l.mu.Lock()
	if l.dirty {
		l.applyConfigLocked()
	}
	for i, p := range pkts {
		ctx := &ctxs[i]
		if p.DstIP != l.vip || p.DstPort != l.vipPort {
			ctx.Emit(p) // return traffic or unrelated: pass through
			continue
		}
		if len(l.backends) == 0 {
			continue // no backends: drop
		}
		key := p.FlowID().SrcEndpoint()
		var a *assignment
		if lastA != nil && lastKey == key {
			a = lastA
		} else {
			var ok bool
			a, ok = l.assigns[key]
			if !ok {
				a = &assignment{Backend: l.backends[l.rr%len(l.backends)]}
				l.rr++
				l.assigns[key] = a
				raises = append(raises, lbRaise{idx: i, key: key, backend: a.Backend})
			}
			lastKey, lastA = key, a
		}
		a.Packets++
		ctx.Touch(state.Supporting, key)
		out := ctx.Rewrite(p)
		out.DstIP = a.Backend.IP
		out.DstPort = a.Backend.Port
		ctx.Emit(out)
	}
	l.mu.Unlock()
	for _, r := range raises {
		ctxs[r.idx].RaiseIntrospection("lb.assigned", r.key, map[string]string{"server": r.backend.String()})
	}
}

// GetPerflow implements mbox.Logic. Destination constraints are rejected:
// they are finer than the balancer's source-endpoint keying (§4.1.2:
// "requests for per-flow state at a granularity finer than the MB uses will
// return an error").
func (l *LB) GetPerflow(class state.Class, match packet.FieldMatch, emit func(key packet.FlowKey, build func(mark func()) ([]byte, error)) error) error {
	if class != state.Supporting {
		return nil
	}
	if match.ConstrainsDst() {
		return fmt.Errorf("lb: per-flow state is keyed by source IP/port only; destination constraints are finer than the keying granularity")
	}
	im := match.ForID()
	l.mu.Lock()
	keys := make([]packet.FlowID, 0, len(l.assigns))
	for k := range l.assigns {
		if im.Match(k) {
			keys = append(keys, k)
		}
	}
	l.mu.Unlock()
	packet.SortIDs(keys)
	for _, key := range keys {
		err := emit(key.Key(), func(mark func()) ([]byte, error) {
			l.mu.Lock()
			defer l.mu.Unlock()
			mark()
			a, ok := l.assigns[key]
			if !ok {
				return nil, fmt.Errorf("lb: assignment for %s vanished during get", key)
			}
			return []byte(fmt.Sprintf("%s %d", a.Backend, a.Packets)), nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// PutPerflow implements mbox.Logic.
func (l *LB) PutPerflow(class state.Class, c state.Chunk) error {
	if class != state.Supporting {
		return fmt.Errorf("lb: no per-flow %v state", class)
	}
	parts := strings.Fields(string(c.Blob))
	if len(parts) != 2 {
		return fmt.Errorf("lb: malformed assignment blob %q", c.Blob)
	}
	b, err := ParseBackend(parts[0])
	if err != nil {
		return err
	}
	pkts, err := strconv.ParseUint(parts[1], 10, 64)
	if err != nil {
		return fmt.Errorf("lb: malformed packet count %q", parts[1])
	}
	id, ok := c.Key.ID()
	if !ok {
		return fmt.Errorf("lb: flow key %s is not IPv4", c.Key)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if existing, ok := l.assigns[id]; ok {
		// The flow raced the move and was assigned here too; the
		// incoming (original) binding wins — an in-progress
		// transaction must not switch servers (§2, R4).
		existing.Backend = b
		existing.Packets += pkts
		return nil
	}
	l.assigns[id] = &assignment{Backend: b, Packets: pkts}
	return nil
}

// DelPerflow implements mbox.Logic.
func (l *LB) DelPerflow(class state.Class, match packet.FieldMatch) (int, error) {
	if class != state.Supporting {
		return 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	im := match.ForID()
	n := 0
	for k := range l.assigns {
		if im.Match(k) {
			delete(l.assigns, k)
			n++
		}
	}
	return n, nil
}

// GetShared implements mbox.Logic: the balancer has no shared state worth
// moving (the round-robin cursor is reconstructible).
func (l *LB) GetShared(class state.Class, mark func()) ([]byte, error) {
	return nil, mbox.ErrNoSharedState
}

// PutShared implements mbox.Logic.
func (l *LB) PutShared(class state.Class, blob []byte) error {
	return mbox.ErrNoSharedState
}

// Stats implements mbox.Logic.
func (l *LB) Stats(match packet.FieldMatch) sbi.StatsReply {
	l.mu.Lock()
	defer l.mu.Unlock()
	var s sbi.StatsReply
	im := match.ForID()
	for k, a := range l.assigns {
		if im.Match(k) {
			s.SupportPerflowChunks++
			s.SupportPerflowBytes += len(a.Backend.String()) + 8
		}
	}
	return s
}

// Config implements mbox.Logic.
func (l *LB) Config() *state.ConfigTree { return l.config }

// Assignment returns the backend bound to a source endpoint.
func (l *LB) Assignment(srcIP netip.Addr, srcPort uint16, proto uint8) (Backend, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	id, _ := packet.FlowKey{SrcIP: srcIP, SrcPort: srcPort, Proto: proto}.ID()
	a, ok := l.assigns[id]
	if !ok {
		return Backend{}, false
	}
	return a.Backend, true
}

// AssignmentCount returns the number of bound flows.
func (l *LB) AssignmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.assigns)
}

// BackendLoads returns the number of flows bound to each backend.
func (l *LB) BackendLoads() map[string]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	loads := map[string]int{}
	for _, a := range l.assigns {
		loads[a.Backend.String()]++
	}
	return loads
}

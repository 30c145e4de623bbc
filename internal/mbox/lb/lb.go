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
	"encoding/binary"
	"fmt"
	"net/netip"
	"strconv"
	"strings"

	"openmb/internal/mbox"
	"openmb/internal/packet"
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

// assignmentCodec is the balancer's per-flow Codec: packet count (8 bytes),
// backend port (2) and backend address (4 or 16).
type assignmentCodec struct{}

func (assignmentCodec) Append(b []byte, a *assignment) []byte {
	b = binary.BigEndian.AppendUint64(b, a.Packets)
	b = binary.BigEndian.AppendUint16(b, a.Backend.Port)
	return append(b, a.Backend.IP.AsSlice()...)
}

func (assignmentCodec) Decode(_ packet.FlowID, b []byte) (*assignment, error) {
	if len(b) >= 10 {
		if ip, ok := netip.AddrFromSlice(b[10:]); ok {
			return &assignment{Packets: binary.BigEndian.Uint64(b), Backend: Backend{IP: ip, Port: binary.BigEndian.Uint16(b[8:])}}, nil
		}
	}
	return nil, fmt.Errorf("lb: malformed assignment blob (%d bytes)", len(b))
}

// Put keeps the incoming backend for a flow that raced the move and was
// assigned here too — an in-progress transaction must not switch servers
// (§2, R4) — and sums the packet counts.
func (assignmentCodec) Put(_ packet.FlowID, in, cur *assignment, has bool) (*assignment, error) {
	if has {
		in.Packets += cur.Packets
	}
	return in, nil
}

func (assignmentCodec) Drop(packet.FlowID, *assignment) {}

// LB is the middlebox logic. It implements mbox.Logic.
type LB struct {
	// Table is keyed by source endpoint only (FlowID.SrcEndpoint): dst
	// fields zero, on both sides of a move. Its lock is the balancer's lock.
	mbox.Table[*assignment]
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
		backends: append([]Backend(nil), backends...),
		vip:      vip,
		vipPort:  vipPort,
		config:   state.NewConfigTree(),
	}
	l.Init(Kind, state.Supporting, mbox.SrcEndpoint, assignmentCodec{})
	values := make([]string, len(backends))
	for i, b := range backends {
		values[i] = b.String()
	}
	if err := l.config.Set("backends", values); err != nil {
		panic("lb: default config: " + err.Error())
	}
	l.config.Watch(func(string) {
		l.Lock()
		l.dirty = true
		l.Unlock()
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
// outside the lock, so ProcessBurst collects them under the lock and replays
// them after it in packet order.
type lbRaise struct {
	idx     int
	key     packet.FlowID
	backend Backend
}

// ProcessBurst implements mbox.Logic: bind new flows round-robin and rewrite
// the destination to the assigned backend. One lock acquisition and at most
// one config re-parse cover the whole burst. Emits are buffered
// by the runtime, so they are appended in-loop under the lock in packet
// order. The destination is rewritten through ctx.Rewrite after the packet's
// Touch: in place when the runtime's borrow is the only reference and no
// reprocess event needs the original.
func (l *LB) ProcessBurst(ctxs []mbox.Context, pkts []*packet.Packet) {
	var raises []lbRaise
	l.Lock()
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
		a, ok := l.Touch(ctx, key)
		if !ok {
			a = &assignment{Backend: l.backends[l.rr%len(l.backends)]}
			l.rr++
			l.Insert(ctx, key, a)
			raises = append(raises, lbRaise{idx: i, key: key, backend: a.Backend})
		}
		a.Packets++
		out := ctx.Rewrite(p)
		out.DstIP = a.Backend.IP
		out.DstPort = a.Backend.Port
		ctx.Emit(out)
	}
	l.Unlock()
	for _, r := range raises {
		ctxs[r.idx].RaiseIntrospection("lb.assigned", r.key, map[string]string{"server": r.backend.String()})
	}
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

// Config implements mbox.Logic.
func (l *LB) Config() *state.ConfigTree { return l.config }

// Assignment returns the backend bound to a source endpoint.
func (l *LB) Assignment(srcIP netip.Addr, srcPort uint16, proto uint8) (Backend, bool) {
	l.Lock()
	defer l.Unlock()
	id, _ := packet.FlowKey{SrcIP: srcIP, SrcPort: srcPort, Proto: proto}.ID()
	a, ok := l.Get(id)
	if !ok {
		return Backend{}, false
	}
	return a.Backend, true
}

// AssignmentCount returns the number of bound flows.
func (l *LB) AssignmentCount() int {
	l.Lock()
	defer l.Unlock()
	return l.Len()
}

// BackendLoads returns the number of flows bound to each backend.
func (l *LB) BackendLoads() map[string]int {
	l.Lock()
	defer l.Unlock()
	loads := map[string]int{}
	for _, a := range l.All() {
		loads[a.Backend.String()]++
	}
	return loads
}

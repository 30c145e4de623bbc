// Package nat implements a NAT middlebox. The paper uses a NAT to motivate
// two OpenMB capabilities:
//
//   - introspection events (§4.2.2): "a control application may be
//     interested in knowing when a NAT has created a new IP address/port
//     mapping". The NAT raises "nat.mapping.created" and
//     "nat.mapping.expired" events carrying the mapping in the event values.
//   - efficient failure recovery (§2, R6): the viable recovery option keeps
//     "a minimal live snapshot of only critical state (e.g., IP address and
//     port mappings from a NAT), with non-critical state (e.g., mapping
//     timeouts) set to default values when a failed MB instance is
//     replaced". Mapping chunks therefore serialize only the critical
//     fields; timers are reset to defaults on import.
//
// State classes: per-flow supporting (the mappings, keyed by internal
// endpoint) and shared supporting (the external port allocator).
package nat

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"strconv"

	"openmb/internal/mbox"
	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/state"
)

// Kind is the middlebox type name.
const Kind = "nat"

var _ mbox.Logic = (*NAT)(nil)

// mapping is one NAT binding. External IP/port are CRITICAL state (must
// survive failover); LastActive is non-critical bookkeeping reset on import.
type mapping struct {
	Internal packet.FlowID // key at NAT granularity: src endpoint + proto
	ExtPort  uint16
	Created  int64
	// LastActive is the NAT's packet clock at the mapping's last touch
	// (creation, translation in either direction, import). It drives idle
	// expiry and is the idle list's ordering key; non-critical.
	LastActive int64
	// prev/next thread the idle list (NAT.head = longest idle).
	prev, next *mapping
}

const mappingWireSize = 2 + 8

const (
	defaultIdleTimeout = int64(300e9) // 300 s
	// External ports are allocated from [firstPort, 65535].
	firstPort    = 20000
	portPoolSize = 65536 - firstPort
)

var defaultInternalPrefix = netip.MustParsePrefix("10.0.0.0/8")

// Drops counts the packets the NAT discarded, by reason.
type Drops struct {
	PortExhausted uint64 // outbound packet of a new flow, external port pool full
	NoMapping     uint64 // inbound packet to an external port with no mapping
}

// NAT is the middlebox logic. It implements mbox.Logic.
type NAT struct {
	// Table maps internal (src IP, src port, proto) to mapping: a source
	// endpoint key, destination fields zero — the NAT's keying granularity,
	// coarser than a 5-tuple (§4.1.2). Its lock is the NAT's lock.
	mbox.Table[*mapping]
	byExtPort map[uint16]*mapping
	// head/tail are the idle list: every live mapping exactly once, in
	// non-decreasing LastActive order, so idle expiry pops from the head and
	// stops at the first mapping still within the timeout. Every touch
	// stamps the mapping with now and moves it to the tail; now never goes
	// back, which is what keeps the order.
	head, tail *mapping
	// now is the packet clock: the highest timestamp of any translated
	// packet so far. start is its value at the first such packet (started
	// records that there was one); a mapping imported before then idles
	// from start, not from its import.
	now     int64
	start   int64
	started bool

	nextPort uint16
	extIP    netip.Addr
	drops    Drops
	config   *state.ConfigTree
	// timeout and internal cache the "idle_timeout_ns" and
	// "internal_prefix" knobs in parsed form; the config watcher refreshes
	// them, so the packet path never reads the config tree.
	timeout  int64
	internal netip.Prefix
}

// New returns a NAT translating to the given external IP.
func New(extIP netip.Addr) *NAT {
	n := &NAT{
		byExtPort: map[uint16]*mapping{},
		nextPort:  firstPort,
		extIP:     extIP,
		config:    state.NewConfigTree(),
	}
	n.Init(Kind, state.Supporting, mbox.SrcEndpoint, (*mappingCodec)(n))
	n.config.Watch(func(string) {
		n.Lock()
		n.applyConfigLocked()
		n.Unlock()
	})
	if err := n.config.Set("idle_timeout_ns", []string{strconv.FormatInt(defaultIdleTimeout, 10)}); err != nil {
		panic("nat: default config: " + err.Error())
	}
	if err := n.config.Set("internal_prefix", []string{defaultInternalPrefix.String()}); err != nil {
		panic("nat: default config: " + err.Error())
	}
	return n
}

// applyConfigLocked refreshes the cached knobs; a missing or malformed value
// falls back to its default.
func (n *NAT) applyConfigLocked() {
	n.timeout = defaultIdleTimeout
	if v, err := n.config.Get("idle_timeout_ns"); err == nil && len(v) == 1 {
		if ns, err := strconv.ParseInt(v[0], 10, 64); err == nil && ns > 0 {
			n.timeout = ns
		}
	}
	n.internal = defaultInternalPrefix
	if v, err := n.config.Get("internal_prefix"); err == nil && len(v) == 1 {
		if p, err := netip.ParsePrefix(v[0]); err == nil {
			n.internal = p
		}
	}
}

// Kind implements mbox.Logic.
func (n *NAT) Kind() string { return Kind }

// natRaise is one deferred introspection raise: raises must run outside
// the lock, so translateLocked collects them under it and the caller
// replays them after it in packet order (expiries before the creation they
// preceded). idx is the packet's position in its burst.
type natRaise struct {
	idx  int
	code string
	key  packet.FlowID
	ext  uint16
}

func (n *NAT) raise(ctx *mbox.Context, r natRaise) {
	ctx.RaiseIntrospection(r.code, r.key, map[string]string{
		"external": fmt.Sprintf("%s:%d", n.extIP, r.ext),
	})
}

// ProcessBurst implements mbox.Logic: translate and forward. Every packet
// runs translateLocked — including its own idle-expiry check, which costs one
// comparison when nothing is due — so a burst has the side effects of its
// packets one at a time; the lock is taken once for the whole burst.
func (n *NAT) ProcessBurst(ctxs []mbox.Context, pkts []*packet.Packet) {
	var raises []natRaise
	n.Lock()
	for i, p := range pkts {
		var out *packet.Packet
		out, raises = n.translateLocked(&ctxs[i], p, i, raises)
		if out != nil {
			ctxs[i].Emit(out) // buffered by the runtime: safe under the lock
		}
	}
	n.Unlock()
	for _, r := range raises {
		n.raise(&ctxs[r.idx], r)
	}
}

// translateLocked is ProcessBurst's per-packet body. Caller holds the lock. It
// returns the packet to emit — the translated ctx.Rewrite(p) (p itself,
// rewritten in place, unless the context needs the original kept), p
// untouched for traffic that is not the NAT's to translate, nil for a drop —
// and raises with this packet's introspection raises appended. Every Touch
// precedes the Rewrite, so a reprocess event still carries p as it arrived.
func (n *NAT) translateLocked(ctx *mbox.Context, p *packet.Packet, idx int, raises []natRaise) (*packet.Packet, []natRaise) {
	outbound := n.internal.Contains(p.SrcIP)
	if !outbound && p.DstIP != n.extIP {
		return p, raises
	}
	raises = n.expireLocked(p.Timestamp, idx, raises)
	if !outbound {
		m, ok := n.byExtPort[p.DstPort]
		if !ok {
			n.drops.NoMapping++
			return nil, raises
		}
		n.Touch(ctx, m.Internal)
		n.touchLocked(m)
		out := ctx.Rewrite(p)
		out.DstIP = m.Internal.SrcAddr()
		out.DstPort = m.Internal.SrcPort()
		return out, raises
	}
	key := p.FlowID().SrcEndpoint()
	m, ok := n.Touch(ctx, key)
	if !ok {
		if ctx.SkipPerflow() {
			return nil, raises
		}
		port, ok := n.allocPortLocked()
		if !ok {
			n.drops.PortExhausted++
			return nil, raises
		}
		ctx.TouchShared(state.Supporting) // port allocator advanced
		m = &mapping{Internal: key, ExtPort: port, Created: p.Timestamp}
		n.Insert(ctx, key, m)
		n.bindLocked(m)
		raises = append(raises, natRaise{idx: idx, code: "nat.mapping.created", key: key, ext: port})
	}
	n.touchLocked(m)
	out := ctx.Rewrite(p)
	out.SrcIP = n.extIP
	out.SrcPort = m.ExtPort
	return out, raises
}

// expireLocked advances the packet clock to ts and removes every mapping
// idle for longer than the timeout, appending one expiry raise per mapping
// (longest idle first). The idle list is ordered, so this visits the expired
// mappings plus one — never the whole table.
func (n *NAT) expireLocked(ts int64, idx int, raises []natRaise) []natRaise {
	if ts > n.now {
		n.now = ts
	}
	if !n.started {
		n.started, n.start = true, n.now
	}
	for m := n.head; m != nil && n.now-max(m.LastActive, n.start) > n.timeout; m = n.head {
		n.Remove(m.Internal)
		raises = append(raises, natRaise{idx: idx, code: "nat.mapping.expired", key: m.Internal, ext: m.ExtPort})
	}
	return raises
}

// bindLocked binds m's port and puts it at the tail of the idle list, its
// idle clock starting now.
func (n *NAT) bindLocked(m *mapping) {
	n.byExtPort[m.ExtPort] = m
	m.LastActive = n.now
	n.pushBackLocked(m)
}

// touchLocked restarts m's idle clock and moves it to the tail of the idle
// list.
func (n *NAT) touchLocked(m *mapping) {
	m.LastActive = n.now
	if m != n.tail {
		n.unlinkLocked(m)
		n.pushBackLocked(m)
	}
}

func (n *NAT) pushBackLocked(m *mapping) {
	m.prev, m.next = n.tail, nil
	if n.tail != nil {
		n.tail.next = m
	} else {
		n.head = m
	}
	n.tail = m
}

func (n *NAT) unlinkLocked(m *mapping) {
	if m.prev != nil {
		m.prev.next = m.next
	} else {
		n.head = m.next
	}
	if m.next != nil {
		m.next.prev = m.prev
	} else {
		n.tail = m.prev
	}
	m.prev, m.next = nil, nil
}

// allocPortLocked hands out the next free port of the pool, or reports
// exhaustion without probing: with fewer mappings than pool ports a free one
// exists, so the probe below always finds it.
func (n *NAT) allocPortLocked() (uint16, bool) {
	if len(n.byExtPort) >= portPoolSize {
		return 0, false
	}
	for {
		port := n.nextPort
		n.nextPort++
		if n.nextPort < firstPort {
			n.nextPort = firstPort
		}
		if _, used := n.byExtPort[port]; !used {
			return port, true
		}
	}
}

// ErrPortBound refuses a put whose external port another internal endpoint
// already holds here.
var ErrPortBound = errors.New("nat: external port already bound")

// mappingCodec is the NAT's per-flow Codec. A mapping serializes only its
// critical fields (external port and creation time); its idle timer resets
// on import — the failure-recovery semantics of §2.
type mappingCodec NAT

func (*mappingCodec) Append(dst []byte, m *mapping) []byte {
	dst = binary.BigEndian.AppendUint16(dst, m.ExtPort)
	return binary.BigEndian.AppendUint64(dst, uint64(m.Created))
}

func (*mappingCodec) Decode(_ packet.FlowID, b []byte) (*mapping, error) {
	if len(b) != mappingWireSize {
		return nil, fmt.Errorf("nat: mapping blob is %d bytes, want %d", len(b), mappingWireSize)
	}
	return &mapping{ExtPort: binary.BigEndian.Uint16(b), Created: int64(binary.BigEndian.Uint64(b[2:]))}, nil
}

// Put replaces any mapping of the endpoint. The imported mapping gets a full
// idle timeout, counted from the NAT's packet clock at import or, on a NAT
// that has translated nothing yet, from its first packet.
func (c *mappingCodec) Put(id packet.FlowID, in, cur *mapping, has bool) (*mapping, error) {
	n := (*NAT)(c)
	if old, ok := n.byExtPort[in.ExtPort]; ok && old.Internal != id {
		return nil, fmt.Errorf("%w: port %d", ErrPortBound, in.ExtPort)
	}
	if has {
		c.Drop(id, cur)
	}
	in.Internal = id
	n.bindLocked(in)
	return in, nil
}

// Drop unbinds the mapping's port and unlinks it from the idle list.
func (c *mappingCodec) Drop(_ packet.FlowID, m *mapping) {
	n := (*NAT)(c)
	delete(n.byExtPort, m.ExtPort)
	n.unlinkLocked(m)
}

// GetShared implements mbox.Logic: the port allocator cursor.
func (n *NAT) GetShared(class state.Class, mark func()) ([]byte, error) {
	if class != state.Supporting {
		return nil, mbox.ErrNoSharedState
	}
	n.Lock()
	defer n.Unlock()
	mark()
	b := make([]byte, 2)
	binary.BigEndian.PutUint16(b, n.nextPort)
	return b, nil
}

// PutShared implements mbox.Logic: adopt the later allocator cursor, so a
// merged NAT never re-allocates a port the source had handed out.
func (n *NAT) PutShared(class state.Class, blob []byte) error {
	if class != state.Supporting {
		return mbox.ErrNoSharedState
	}
	if len(blob) < 2 {
		return fmt.Errorf("nat: short allocator blob")
	}
	port := binary.BigEndian.Uint16(blob)
	n.Lock()
	defer n.Unlock()
	if port > n.nextPort {
		n.nextPort = port
	}
	return nil
}

// Stats implements mbox.Logic.
func (n *NAT) Stats(match packet.FieldMatch) sbi.StatsReply {
	s := n.Table.Stats(match)
	s.SupportSharedBytes = 2
	return s
}

// Config implements mbox.Logic.
func (n *NAT) Config() *state.ConfigTree { return n.config }

// Drops returns the packets discarded so far, by reason.
func (n *NAT) Drops() Drops {
	n.Lock()
	defer n.Unlock()
	return n.drops
}

// MappingCount returns the number of live mappings.
func (n *NAT) MappingCount() int {
	n.Lock()
	defer n.Unlock()
	return n.Len()
}

// Lookup returns the external port bound to an internal endpoint.
func (n *NAT) Lookup(srcIP netip.Addr, srcPort uint16, proto uint8) (uint16, bool) {
	n.Lock()
	defer n.Unlock()
	id, _ := packet.FlowKey{SrcIP: srcIP, SrcPort: srcPort, Proto: proto}.ID()
	m, ok := n.Get(id)
	if !ok {
		return 0, false
	}
	return m.ExtPort, true
}

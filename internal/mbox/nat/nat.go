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
	"fmt"
	"net/netip"
	"strconv"
	"sync"

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
	mu sync.Mutex
	// byInternal maps internal (src IP, src port, proto) to mapping. The
	// key is a masked FlowID (FlowID.SrcEndpoint): destination fields zero —
	// the NAT's keying granularity, coarser than a 5-tuple (§4.1.2).
	byInternal map[packet.FlowID]*mapping
	byExtPort  map[uint16]*mapping
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
		byInternal: map[packet.FlowID]*mapping{},
		byExtPort:  map[uint16]*mapping{},
		nextPort:   firstPort,
		extIP:      extIP,
		config:     state.NewConfigTree(),
	}
	n.config.Watch(func(string) {
		n.mu.Lock()
		n.applyConfigLocked()
		n.mu.Unlock()
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
// n.mu, so translateLocked collects them under the lock and the caller
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

// lastFlow remembers the previous outbound packet's mapping so consecutive
// packets of one flow skip the table lookup. Only valid while n.mu is held
// continuously (ProcessBurst holds it for the whole burst).
type lastFlow struct {
	key packet.FlowID
	m   *mapping
}

// ProcessBurst implements mbox.Logic: translate and forward. Every packet
// runs translateLocked — including its own idle-expiry check, which costs one
// comparison when nothing is due — so a burst has the side effects of its
// packets one at a time; the mutex is taken once for the whole burst and
// consecutive outbound packets of one flow reuse the mapping lookup.
func (n *NAT) ProcessBurst(ctxs []mbox.Context, pkts []*packet.Packet) {
	var raises []natRaise
	var last lastFlow
	n.mu.Lock()
	for i, p := range pkts {
		var out *packet.Packet
		out, raises = n.translateLocked(&ctxs[i], p, i, raises, &last)
		if out != nil {
			ctxs[i].Emit(out) // buffered by the runtime: safe under n.mu
		}
	}
	n.mu.Unlock()
	for _, r := range raises {
		n.raise(&ctxs[r.idx], r)
	}
}

// translateLocked is ProcessBurst's per-packet body. Caller holds n.mu. It
// returns the packet to emit — the translated ctx.Rewrite(p) (p itself,
// rewritten in place, unless the context needs the original kept), p
// untouched for traffic that is not the NAT's to translate, nil for a drop —
// and raises with this packet's introspection raises appended. Every Touch
// precedes the Rewrite, so a reprocess event still carries p as it arrived.
func (n *NAT) translateLocked(ctx *mbox.Context, p *packet.Packet, idx int, raises []natRaise, last *lastFlow) (*packet.Packet, []natRaise) {
	outbound := n.internal.Contains(p.SrcIP)
	if !outbound && p.DstIP != n.extIP {
		return p, raises
	}
	live := len(raises)
	raises = n.expireLocked(p.Timestamp, idx, raises)
	if len(raises) != live {
		*last = lastFlow{} // the remembered mapping may be among the expired
	}
	if !outbound {
		m, ok := n.byExtPort[p.DstPort]
		if !ok {
			n.drops.NoMapping++
			return nil, raises
		}
		n.touchLocked(m)
		ctx.Touch(state.Supporting, m.Internal)
		out := ctx.Rewrite(p)
		out.DstIP = m.Internal.SrcAddr()
		out.DstPort = m.Internal.SrcPort()
		return out, raises
	}
	key := p.FlowID().SrcEndpoint()
	m := last.m
	if m == nil || last.key != key {
		var ok bool
		if m, ok = n.byInternal[key]; !ok {
			if ctx.SkipPerflow() {
				return nil, raises
			}
			port, ok := n.allocPortLocked()
			if !ok {
				n.drops.PortExhausted++
				return nil, raises
			}
			m = &mapping{Internal: key, ExtPort: port, Created: p.Timestamp}
			n.insertLocked(m)
			ctx.TouchShared(state.Supporting) // port allocator advanced
			raises = append(raises, natRaise{idx: idx, code: "nat.mapping.created", key: key, ext: port})
		}
		*last = lastFlow{key: key, m: m}
	}
	n.touchLocked(m)
	ctx.Touch(state.Supporting, key)
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
		n.removeLocked(m)
		raises = append(raises, natRaise{idx: idx, code: "nat.mapping.expired", key: m.Internal, ext: m.ExtPort})
	}
	return raises
}

// insertLocked adds m to both maps and to the tail of the idle list, its
// idle clock starting now.
func (n *NAT) insertLocked(m *mapping) {
	n.byInternal[m.Internal] = m
	n.byExtPort[m.ExtPort] = m
	m.LastActive = n.now
	n.pushBackLocked(m)
}

// removeLocked takes m out of both maps and the idle list.
func (n *NAT) removeLocked(m *mapping) {
	delete(n.byInternal, m.Internal)
	delete(n.byExtPort, m.ExtPort)
	n.unlinkLocked(m)
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

// GetPerflow implements mbox.Logic: mappings serialize only critical fields
// (external port + creation time); idle timers reset on import.
func (n *NAT) GetPerflow(class state.Class, match packet.FieldMatch, emit func(key packet.FlowKey, build func(mark func()) ([]byte, error)) error) error {
	if class != state.Supporting {
		return nil
	}
	if match.ConstrainsDst() {
		return fmt.Errorf("nat: mappings are keyed by internal endpoint; destination constraints are finer than keying granularity")
	}
	im := match.ForID()
	n.mu.Lock()
	keys := make([]packet.FlowID, 0, len(n.byInternal))
	for k := range n.byInternal {
		if im.MatchEither(k) {
			keys = append(keys, k)
		}
	}
	n.mu.Unlock()
	packet.SortIDs(keys)
	for _, key := range keys {
		err := emit(key.Key(), func(mark func()) ([]byte, error) {
			n.mu.Lock()
			defer n.mu.Unlock()
			mark()
			m, ok := n.byInternal[key]
			if !ok {
				return nil, fmt.Errorf("nat: mapping for %s expired during get", key)
			}
			b := make([]byte, mappingWireSize)
			binary.BigEndian.PutUint16(b[0:2], m.ExtPort)
			binary.BigEndian.PutUint64(b[2:10], uint64(m.Created))
			return b, nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// PutPerflow implements mbox.Logic: restore a mapping with its non-critical
// field (LastActive) reset to the default — the failure-recovery semantics of
// §2. The imported mapping gets a full idle timeout, counted from the NAT's
// packet clock at import or, on a NAT that has translated nothing yet, from
// its first packet. A chunk for a key already present replaces that mapping.
func (n *NAT) PutPerflow(class state.Class, c state.Chunk) error {
	if class != state.Supporting {
		return fmt.Errorf("nat: no per-flow %v state", class)
	}
	if len(c.Blob) < mappingWireSize {
		return fmt.Errorf("nat: short mapping blob (%d bytes)", len(c.Blob))
	}
	id, ok := c.Key.ID()
	if !ok {
		return fmt.Errorf("nat: flow key %s is not IPv4", c.Key)
	}
	m := &mapping{
		Internal: id,
		ExtPort:  binary.BigEndian.Uint16(c.Blob[0:2]),
		Created:  int64(binary.BigEndian.Uint64(c.Blob[2:10])),
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if old, ok := n.byExtPort[m.ExtPort]; ok && old.Internal != m.Internal {
		return fmt.Errorf("nat: external port %d already bound", m.ExtPort)
	}
	if old, ok := n.byInternal[m.Internal]; ok {
		n.removeLocked(old)
	}
	n.insertLocked(m)
	return nil
}

// DelPerflow implements mbox.Logic.
func (n *NAT) DelPerflow(class state.Class, match packet.FieldMatch) (int, error) {
	if class != state.Supporting {
		return 0, nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	im := match.ForID()
	count := 0
	for k, m := range n.byInternal {
		if im.MatchEither(k) {
			n.removeLocked(m)
			count++
		}
	}
	return count, nil
}

// GetShared implements mbox.Logic: the port allocator cursor.
func (n *NAT) GetShared(class state.Class, mark func()) ([]byte, error) {
	if class != state.Supporting {
		return nil, mbox.ErrNoSharedState
	}
	n.mu.Lock()
	defer n.mu.Unlock()
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
	n.mu.Lock()
	defer n.mu.Unlock()
	if port > n.nextPort {
		n.nextPort = port
	}
	return nil
}

// Stats implements mbox.Logic.
func (n *NAT) Stats(match packet.FieldMatch) sbi.StatsReply {
	n.mu.Lock()
	defer n.mu.Unlock()
	var s sbi.StatsReply
	im := match.ForID()
	for k := range n.byInternal {
		if im.MatchEither(k) {
			s.SupportPerflowChunks++
			s.SupportPerflowBytes += mappingWireSize
		}
	}
	s.SupportSharedBytes = 2
	return s
}

// Config implements mbox.Logic.
func (n *NAT) Config() *state.ConfigTree { return n.config }

// Drops returns the packets discarded so far, by reason.
func (n *NAT) Drops() Drops {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.drops
}

// MappingCount returns the number of live mappings.
func (n *NAT) MappingCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.byInternal)
}

// Lookup returns the external port bound to an internal endpoint.
func (n *NAT) Lookup(srcIP netip.Addr, srcPort uint16, proto uint8) (uint16, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	id, _ := packet.FlowKey{SrcIP: srcIP, SrcPort: srcPort, Proto: proto}.ID()
	m, ok := n.byInternal[id]
	if !ok {
		return 0, false
	}
	return m.ExtPort, true
}

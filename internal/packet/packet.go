// Package packet provides the packet model used throughout OpenMB: a small,
// allocation-conscious layer stack (Ethernet, IPv4, TCP, UDP, ICMP) with
// binary marshaling, flow identification, and the header-field match lists
// that the southbound and northbound APIs use to name per-flow state.
//
// The design follows the conventions of mature Go packet libraries: layers
// are decoded into preallocated structs, flows and endpoints are comparable
// values usable as map keys, and a flow's ID hashes symmetrically
// (FlowID.Hash) for load balancing where A->B and B->A must land in the same
// bucket.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"strconv"
)

// Protocol numbers used in the IPv4 header. Only the protocols the
// middleboxes understand are defined; anything else is carried opaquely.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// TCP flag bits.
const (
	FlagFIN = 1 << 0
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
)

// ErrTruncated is returned when a buffer is too short for what it must hold.
var ErrTruncated = errors.New("packet: truncated")

// Packet is a decoded packet. Header fields are stored unpacked so that
// middlebox logic can inspect them without re-parsing; Payload aliases the
// application bytes. A Packet is self-contained: Marshal regenerates the
// wire form.
type Packet struct {
	// SrcIP and DstIP are the IPv4 endpoints.
	SrcIP, DstIP netip.Addr
	// Proto is one of ProtoICMP, ProtoTCP, ProtoUDP.
	Proto uint8
	// SrcPort and DstPort are transport ports (zero for ICMP).
	SrcPort, DstPort uint16
	// Seq is the TCP sequence number (zero otherwise).
	Seq uint32
	// Ack is the TCP acknowledgment number (zero otherwise).
	Ack uint32
	// Flags holds TCP flag bits (zero otherwise).
	Flags uint8
	// TTL is the IPv4 time-to-live.
	TTL uint8
	// ID is the IPv4 identification field; traces use it as a per-flow
	// sequence number so experiments can detect loss and reordering.
	ID uint16
	// Payload is the application payload.
	Payload []byte
	// Timestamp is the trace or arrival time in nanoseconds since the
	// start of the run. It is metadata, not serialized on the wire.
	Timestamp int64

	// pool and refs implement the zero-copy borrow/release discipline (see
	// Pool). pool is nil for ordinary heap packets, which makes Retain and
	// Release no-ops on them. refs is manipulated with sync/atomic.
	pool *Pool
	refs int32
}

// copyFieldsTo copies p's protocol fields (everything but Payload and the
// pool bookkeeping) into q. Used by the clone paths, which must not copy the
// reference count: a whole-struct copy would read refs non-atomically while
// other holders release.
func (p *Packet) copyFieldsTo(q *Packet) {
	q.SrcIP, q.DstIP = p.SrcIP, p.DstIP
	q.Proto = p.Proto
	q.SrcPort, q.DstPort = p.SrcPort, p.DstPort
	q.Seq, q.Ack = p.Seq, p.Ack
	q.Flags, q.TTL = p.Flags, p.TTL
	q.ID = p.ID
	q.Timestamp = p.Timestamp
}

// headerLen is the fixed encoding size before the payload: a 2-byte length
// prefix is not included here; see Marshal.
const headerLen = 1 + 4 + 4 + 2 + 2 + 4 + 4 + 1 + 1 + 2 // 25

// Marshal appends the wire form of p to b and returns the extended slice.
// The format is a compact fixed header followed by the payload; it is the
// repository's native trace/wire format (the simulator carries *Packet
// values directly, so no per-hop marshaling happens on the fast path).
func (p *Packet) Marshal(b []byte) []byte {
	var hdr [headerLen]byte
	hdr[0] = p.Proto
	src := p.SrcIP.As4()
	dst := p.DstIP.As4()
	copy(hdr[1:5], src[:])
	copy(hdr[5:9], dst[:])
	binary.BigEndian.PutUint16(hdr[9:11], p.SrcPort)
	binary.BigEndian.PutUint16(hdr[11:13], p.DstPort)
	binary.BigEndian.PutUint32(hdr[13:17], p.Seq)
	binary.BigEndian.PutUint32(hdr[17:21], p.Ack)
	hdr[21] = p.Flags
	hdr[22] = p.TTL
	binary.BigEndian.PutUint16(hdr[23:25], p.ID)
	b = append(b, hdr[:]...)
	return append(b, p.Payload...)
}

// Unmarshal decodes the wire form produced by Marshal. The payload aliases b.
func (p *Packet) Unmarshal(b []byte) error {
	if len(b) < headerLen {
		return ErrTruncated
	}
	p.Proto = b[0]
	p.SrcIP = netip.AddrFrom4([4]byte(b[1:5]))
	p.DstIP = netip.AddrFrom4([4]byte(b[5:9]))
	p.SrcPort = binary.BigEndian.Uint16(b[9:11])
	p.DstPort = binary.BigEndian.Uint16(b[11:13])
	p.Seq = binary.BigEndian.Uint32(b[13:17])
	p.Ack = binary.BigEndian.Uint32(b[17:21])
	p.Flags = b[21]
	p.TTL = b[22]
	p.ID = binary.BigEndian.Uint16(b[23:25])
	p.Payload = b[headerLen:]
	return nil
}

// Clone returns a deep copy of p, including the payload: the copy a holder
// writes when others may still read p (duplication on a link or a mirror
// port, a rewrite that cannot happen in place). A pooled packet clones from
// its pool (the copy holds one reference); a heap packet clones to the heap.
func (p *Packet) Clone() *Packet {
	if p.pool != nil {
		return p.pool.Clone(p)
	}
	q := &Packet{}
	p.copyFieldsTo(q)
	if p.Payload != nil {
		q.Payload = make([]byte, len(p.Payload))
		copy(q.Payload, p.Payload)
	}
	return q
}

// CloneDetached returns a heap deep copy of p outside any pool, whatever
// p's origin. Recording endpoints use it to copy a delivered packet out and
// release the pooled original immediately, instead of retaining it — a
// retained record would pin a pool packet for the recorder's whole
// lifetime.
func (p *Packet) CloneDetached() *Packet {
	q := &Packet{}
	p.copyFieldsTo(q)
	if p.Payload != nil {
		q.Payload = make([]byte, len(p.Payload))
		copy(q.Payload, p.Payload)
	}
	return q
}

// Flow returns the directed flow key of the packet.
func (p *Packet) Flow() FlowKey {
	return FlowKey{
		SrcIP:   p.SrcIP,
		DstIP:   p.DstIP,
		Proto:   p.Proto,
		SrcPort: p.SrcPort,
		DstPort: p.DstPort,
	}
}

// String renders a compact human-readable form for logs.
func (p *Packet) String() string {
	return fmt.Sprintf("%s:%d>%s:%d/%s len=%d", p.SrcIP, p.SrcPort, p.DstIP, p.DstPort, protoName(p.Proto), len(p.Payload))
}

func protoName(proto uint8) string {
	switch proto {
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	case ProtoICMP:
		return "icmp"
	}
	return "proto" + strconv.Itoa(int(proto))
}

// FlowKey is a directed 5-tuple. It is comparable and therefore usable as a
// map key; middleboxes index per-flow state by (possibly masked) FlowKeys.
type FlowKey struct {
	SrcIP, DstIP     netip.Addr
	Proto            uint8
	SrcPort, DstPort uint16
}

// Reverse returns the key of the opposite direction.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{SrcIP: k.DstIP, DstIP: k.SrcIP, Proto: k.Proto, SrcPort: k.DstPort, DstPort: k.SrcPort}
}

// Canonical returns the direction-independent form of the key: the endpoint
// that compares lower is placed first. Both directions of a connection map
// to the same canonical key, which is how connection tables index sessions.
func (k FlowKey) Canonical() FlowKey {
	if endpointLess(k.DstIP, k.DstPort, k.SrcIP, k.SrcPort) {
		return k.Reverse()
	}
	return k
}

func endpointLess(aIP netip.Addr, aPort uint16, bIP netip.Addr, bPort uint16) bool {
	switch aIP.Compare(bIP) {
	case -1:
		return true
	case 1:
		return false
	}
	return aPort < bPort
}

// String renders the key as "src:port>dst:port/proto".
func (k FlowKey) String() string { return string(k.appendText(make([]byte, 0, 48))) }

// appendText appends the String form to b without going through fmt: it is
// the JSON codec's key encoding and sits on per-packet log paths.
func (k FlowKey) appendText(b []byte) []byte {
	b = appendAddr(b, k.SrcIP)
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(k.SrcPort), 10)
	b = append(b, '>')
	b = appendAddr(b, k.DstIP)
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(k.DstPort), 10)
	b = append(b, '/')
	return append(b, protoName(k.Proto)...)
}

// appendAddr appends a.String(); netip's own AppendTo renders the zero Addr
// as nothing.
func appendAddr(b []byte, a netip.Addr) []byte {
	if !a.IsValid() {
		return append(b, "invalid IP"...)
	}
	return a.AppendTo(b)
}

// MarshalText implements encoding.TextMarshaler: the String form, or empty
// text for the zero key. It lets FlowKey-valued fields (events, chunks)
// serialize themselves in JSON without shadow string fields.
func (k FlowKey) MarshalText() ([]byte, error) {
	if k == (FlowKey{}) {
		return nil, nil
	}
	return k.appendText(make([]byte, 0, 48)), nil
}

// UnmarshalText implements encoding.TextUnmarshaler, inverting MarshalText.
func (k *FlowKey) UnmarshalText(b []byte) error {
	if len(b) == 0 {
		*k = FlowKey{}
		return nil
	}
	parsed, err := ParseFlowKey(string(b))
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// FlowKeyWireSize is the fixed binary encoding size of a FlowKey:
// src(4) dst(4) proto(1) sport(2) dport(2).
const FlowKeyWireSize = 13

// AppendBinary appends the 13-byte wire form of k to b. Invalid (zero)
// addresses encode as 0.0.0.0 and decode as such; callers that must
// distinguish the zero key track presence separately, and callers whose keys
// may hold non-IPv4 addresses must reject them before encoding (ID reports
// them) — the fixed form cannot represent them.
func (k FlowKey) AppendBinary(b []byte) []byte {
	id, _ := k.ID()
	return id.AppendBinary(b)
}

// DecodeFlowKey decodes the wire form produced by AppendBinary.
func DecodeFlowKey(b []byte) (FlowKey, error) {
	id, err := DecodeFlowID(b)
	if err != nil {
		return FlowKey{}, err
	}
	return id.Key(), nil
}

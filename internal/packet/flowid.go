package packet

import (
	"cmp"
	"encoding/binary"
	"net/netip"
	"slices"
)

// FlowID is the table form of a FlowKey: exactly what the 13 wire bytes hold
// (IPv4 source and destination, both ports, protocol) packed into two
// integers. It is comparable and pointer-free, so a table keyed by it hashes
// and compares 16 bytes and is invisible to the collector; FlowKey stays the
// form APIs, events and logs speak, and converts at the boundary (ID, Key).
//
// Each word is one endpoint, address<<24 | port<<8, and the destination word
// carries the protocol in its low byte — so comparing (src, dst) as integers
// orders by source endpoint, destination endpoint, then protocol. An unset
// address is the wildcard 0, exactly as FlowKey.AppendBinary encodes it: the
// masked keys of source-endpoint-keyed middleboxes (NAT, LB) are the same ID
// on both sides of the wire.
type FlowID struct{ src, dst uint64 }

// SharedID is a reserved ID no IPv4 flow produces (its top bit lies above
// the 56-bit endpoint words): the controller's router keys a middlebox's
// shared state under it, beside the per-flow keys of the same source.
var SharedID = FlowID{src: 1 << 63}

func endpoint(addr uint32, port uint16) uint64 { return uint64(addr)<<24 | uint64(port)<<8 }

// addr4 returns a's IPv4 value; the unset Addr is the wildcard 0. It reports
// false for a real address the ID cannot hold (IPv6, IPv4-mapped).
func addr4(a netip.Addr) (uint32, bool) {
	if a.Is4() {
		b := a.As4()
		return binary.BigEndian.Uint32(b[:]), true
	}
	return 0, !a.IsValid()
}

func wordAddr(w uint64) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(w>>24))
	return netip.AddrFrom4(b)
}

// ID returns the table form of k. It reports false when k holds a non-IPv4
// address (encoded as 0, as AppendBinary does); callers reject such a key
// where it enters — PutPerflow, codec encode.
func (k FlowKey) ID() (FlowID, bool) {
	src, sok := addr4(k.SrcIP)
	dst, dok := addr4(k.DstIP)
	return FlowID{endpoint(src, k.SrcPort), endpoint(dst, k.DstPort) | uint64(k.Proto)}, sok && dok
}

// FlowID returns the directed flow ID of the packet, straight from its
// header fields. Packets are IPv4 by construction (Parse and Unmarshal
// produce nothing else).
func (p *Packet) FlowID() FlowID {
	src, _ := addr4(p.SrcIP)
	dst, _ := addr4(p.DstIP)
	return FlowID{endpoint(src, p.SrcPort), endpoint(dst, p.DstPort) | uint64(p.Proto)}
}

// Key expands the ID to the key it was made from, up to the wire encoding:
// a wildcard address comes back as 0.0.0.0.
func (id FlowID) Key() FlowKey {
	return FlowKey{
		SrcIP: id.SrcAddr(), DstIP: wordAddr(id.dst), Proto: id.Proto(),
		SrcPort: id.SrcPort(), DstPort: uint16(id.dst >> 8),
	}
}

// SrcAddr, SrcPort and Proto return single fields, for logic that rewrites
// packets from its table keys.
func (id FlowID) SrcAddr() netip.Addr { return wordAddr(id.src) }
func (id FlowID) SrcPort() uint16     { return uint16(id.src >> 8) }
func (id FlowID) Proto() uint8        { return uint8(id.dst) }

// String renders the ID as its key.
func (id FlowID) String() string { return id.Key().String() }

// Reverse returns the ID of the opposite direction.
func (id FlowID) Reverse() FlowID { return FlowID{id.dst &^ 0xff, id.src | id.dst&0xff} }

// Canonical returns the direction-independent form — the lower endpoint
// first, as FlowKey.Canonical — and whether that reversed id.
func (id FlowID) Canonical() (FlowID, bool) {
	if id.dst>>8 < id.src>>8 {
		return id.Reverse(), true
	}
	return id, false
}

// SrcEndpoint masks the ID down to source endpoint and protocol, the keying
// granularity of middleboxes that see one destination (NAT, LB).
func (id FlowID) SrcEndpoint() FlowID { return FlowID{id.src, id.dst & 0xff} }

// Compare orders IDs by source endpoint, destination endpoint, then
// protocol.
func (id FlowID) Compare(o FlowID) int {
	if c := cmp.Compare(id.src, o.src); c != 0 {
		return c
	}
	return cmp.Compare(id.dst, o.dst)
}

// SortIDs sorts IDs in place under Compare, for callers that want keys in
// key order (the flow index's sorted views, tests comparing key sets).
// Per-flow gets do not sort: they export in table order.
func SortIDs(ids []FlowID) { slices.SortFunc(ids, FlowID.Compare) }

// Hash returns a well-mixed symmetric 64-bit hash: id and id.Reverse() hash
// equal, so sharding by it keeps both directions of a connection together.
func (id FlowID) Hash() uint64 { return id.HashSeed(0) }

// HashSeed is Hash under a seed, XORed in before the finalizer, so that two
// seeds give unrelated hashes: tables with their own seeds do not share an
// order, and filling one in another's slot order does not pile up.
func (id FlowID) HashSeed(seed uint64) uint64 {
	c, _ := id.Canonical()
	h := c.src*0x9e3779b97f4a7c15 ^ c.dst ^ seed
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// AppendBinary appends the 13-byte wire form, byte for byte what
// FlowKey.AppendBinary writes.
func (id FlowID) AppendBinary(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(id.src>>24))
	b = binary.BigEndian.AppendUint32(b, uint32(id.dst>>24))
	b = append(b, id.Proto())
	b = binary.BigEndian.AppendUint16(b, id.SrcPort())
	return binary.BigEndian.AppendUint16(b, uint16(id.dst>>8))
}

// DecodeFlowID decodes the wire form produced by AppendBinary.
func DecodeFlowID(b []byte) (FlowID, error) {
	if len(b) < FlowKeyWireSize {
		return FlowID{}, ErrTruncated
	}
	return FlowID{
		endpoint(binary.BigEndian.Uint32(b[0:4]), binary.BigEndian.Uint16(b[9:11])),
		endpoint(binary.BigEndian.Uint32(b[4:8]), binary.BigEndian.Uint16(b[11:13])) | uint64(b[8]),
	}, nil
}

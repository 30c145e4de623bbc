package packet

import (
	"bytes"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
)

// idTestKeys returns seeded IPv4 keys of every shape a table sees: random
// 5-tuples from a small address pool (so comparisons get past the first
// field), both directions of some, equal addresses with differing ports,
// equal endpoints, keys differing only in protocol, the masked keys of LB
// (destination unset) and NAT (destination 0.0.0.0) — from disjoint source
// pools, because FlowKey orders an unset address before 0.0.0.0 and the wire
// form cannot — and the zero key.
func idTestKeys(rng *rand.Rand, n int) []FlowKey {
	addr := func(net byte) netip.Addr {
		return netip.AddrFrom4([4]byte{10, net, byte(rng.Intn(2)), byte(1 + rng.Intn(6))})
	}
	protos := []uint8{ProtoTCP, ProtoUDP, ProtoICMP, 0, 47, 255}
	keys := []FlowKey{{}}
	for len(keys) < n {
		k := FlowKey{
			SrcIP: addr(0), DstIP: addr(0), Proto: protos[rng.Intn(len(protos))],
			SrcPort: uint16(rng.Intn(4)), DstPort: uint16(rng.Intn(65536)),
		}
		switch rng.Intn(8) {
		case 0:
			keys = append(keys, k.Reverse())
		case 1:
			k.DstIP = k.SrcIP
		case 2:
			k.DstIP, k.DstPort = k.SrcIP, k.SrcPort
		case 3:
			other := k
			other.Proto = protos[rng.Intn(len(protos))]
			keys = append(keys, other)
		case 4:
			k = FlowKey{SrcIP: addr(1), SrcPort: k.SrcPort, Proto: k.Proto}
		case 5:
			k = FlowKey{SrcIP: addr(2), SrcPort: k.SrcPort, Proto: k.Proto, DstIP: netip.AddrFrom4([4]byte{})}
		}
		keys = append(keys, k)
	}
	return keys
}

// wireKey is k as the 13-byte form carries it: an unset address is 0.0.0.0.
func wireKey(k FlowKey) FlowKey {
	if !k.SrcIP.IsValid() {
		k.SrcIP = netip.AddrFrom4([4]byte{})
	}
	if !k.DstIP.IsValid() {
		k.DstIP = netip.AddrFrom4([4]byte{})
	}
	return k
}

// wireBytes encodes k field by field, independently of FlowID.
func wireBytes(k FlowKey) []byte {
	k = wireKey(k)
	src, dst := k.SrcIP.As4(), k.DstIP.As4()
	b := append(src[:], dst[:]...)
	return append(b, k.Proto, byte(k.SrcPort>>8), byte(k.SrcPort), byte(k.DstPort>>8), byte(k.DstPort))
}

// fieldMatch evaluates m on k one field at a time with netip, independently
// of IDMatch.
func fieldMatch(m FieldMatch, k FlowKey) bool {
	k = wireKey(k)
	return (!m.SrcPrefix.IsValid() || m.SrcPrefix.Contains(k.SrcIP)) &&
		(!m.DstPrefix.IsValid() || m.DstPrefix.Contains(k.DstIP)) &&
		(m.Proto == 0 || m.Proto == k.Proto) &&
		(!m.HasSrcPort || m.SrcPort == k.SrcPort) &&
		(!m.HasDstPort || m.DstPort == k.DstPort)
}

func mustID(t *testing.T, k FlowKey) FlowID {
	t.Helper()
	id, ok := k.ID()
	if !ok {
		t.Fatalf("%v: ID reports a non-IPv4 address", k)
	}
	return id
}

// TestFlowIDMatchesFlowKey: the ID is the key. Every operation tables do on
// a FlowID gives what the same operation gives on the FlowKey it came from.
func TestFlowIDMatchesFlowKey(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	keys := idTestKeys(rng, 2400)
	for _, k := range keys {
		id := mustID(t, k)
		if got := id.Key(); got != wireKey(k) {
			t.Fatalf("%v: ID().Key() = %v", k, got)
		}
		if id.Reverse().Reverse() != id || mustID(t, k.Reverse()) != id.Reverse() {
			t.Fatalf("%v: Reverse disagrees", k)
		}
		canon, reversed := id.Canonical()
		if want := k.Canonical(); canon != mustID(t, want) || reversed != (want != k) {
			t.Fatalf("%v: Canonical = %v reversed=%v, FlowKey.Canonical = %v", k, canon, reversed, want)
		}
		want := wireBytes(k)
		if got := id.AppendBinary(nil); !bytes.Equal(got, want) {
			t.Fatalf("%v: AppendBinary = %x, want %x", k, got, want)
		}
		if got := k.AppendBinary(nil); !bytes.Equal(got, want) {
			t.Fatalf("%v: FlowKey.AppendBinary = %x, want %x", k, got, want)
		}
		if got, err := DecodeFlowID(want); err != nil || got != id {
			t.Fatalf("%v: DecodeFlowID = %v, %v", k, got, err)
		}
		if id.Hash() != id.Reverse().Hash() {
			t.Fatalf("%v: hash is not symmetric", k)
		}
		const seed = 0x5eed
		if id.HashSeed(seed) != id.Reverse().HashSeed(seed) || id.HashSeed(0) != id.Hash() || id.HashSeed(seed) == id.Hash() {
			t.Fatalf("%v: seeded hash is not symmetric, or HashSeed(0) is not Hash, or the seed is ignored", k)
		}
		other := k
		other.Proto ^= 1
		if id.Hash() == mustID(t, other).Hash() {
			t.Fatalf("%v: hash ignores the protocol", k)
		}
		if id.SrcEndpoint() != mustID(t, FlowKey{SrcIP: k.SrcIP, SrcPort: k.SrcPort, Proto: k.Proto}) {
			t.Fatalf("%v: SrcEndpoint = %v", k, id.SrcEndpoint())
		}
		if id.SrcAddr() != wireKey(k).SrcIP || id.SrcPort() != k.SrcPort || id.Proto() != k.Proto {
			t.Fatalf("%v: accessors give %v:%d/%d", k, id.SrcAddr(), id.SrcPort(), id.Proto())
		}
	}

	// Compare is the key order (compareKeys): sorting the IDs and sorting the keys give
	// the same sequence, from any shuffle.
	sorted := slices.Clone(keys)
	slices.SortFunc(sorted, compareKeys)
	for round := 0; round < 5; round++ {
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		ids := make([]FlowID, len(keys))
		for i, k := range keys {
			ids[i] = mustID(t, k)
		}
		SortIDs(ids)
		for i, id := range ids {
			if id != mustID(t, sorted[i]) {
				t.Fatalf("shuffle %d: position %d holds %v, FlowKey order has %v", round, i, id, sorted[i])
			}
		}
	}

	// Matching: the lowered match, and the key through ID() into it, agree
	// with the field-by-field evaluation.
	prefix := func() netip.Prefix {
		switch rng.Intn(6) {
		case 0:
			return netip.Prefix{}
		case 1:
			return netip.MustParsePrefix("2001:db8::/32")
		}
		return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(rng.Intn(3)), byte(rng.Intn(2)), byte(rng.Intn(8))}), []int{0, 8, 16, 23, 24, 30, 32}[rng.Intn(7)])
	}
	for i := 0; i < 300; i++ {
		m := FieldMatch{SrcPrefix: prefix(), DstPrefix: prefix()}
		if rng.Intn(3) == 0 {
			m.Proto = []uint8{ProtoTCP, ProtoUDP, 47}[rng.Intn(3)]
		}
		if rng.Intn(3) == 0 {
			m.SrcPort, m.HasSrcPort = uint16(rng.Intn(4)), true
		}
		if rng.Intn(4) == 0 {
			m.DstPort, m.HasDstPort = keys[rng.Intn(len(keys))].DstPort, true
		}
		im := m.ForID()
		for _, k := range keys[:400] {
			id := mustID(t, k)
			want := fieldMatch(m, k)
			if im.Match(id) != want || matches(m, k) != want {
				t.Fatalf("%v on %v: lowered %v, Match %v, field by field %v", m, k, im.Match(id), matches(m, k), want)
			}
			either := want || fieldMatch(m, k.Reverse())
			if im.MatchEither(id) != either || m.MatchEither(k) != either {
				t.Fatalf("%v on %v either way: lowered %v, MatchEither %v, field by field %v", m, k, im.MatchEither(id), m.MatchEither(k), either)
			}
		}
	}

	// A real non-IPv4 address has no ID, and such a key matches nothing.
	v6 := FlowKey{SrcIP: netip.MustParseAddr("2001:db8::1"), DstIP: netip.AddrFrom4([4]byte{10, 0, 0, 1}), Proto: ProtoTCP, SrcPort: 1, DstPort: 2}
	for _, k := range []FlowKey{v6, v6.Reverse(), {SrcIP: netip.MustParseAddr("::ffff:10.0.0.1")}} {
		if _, ok := k.ID(); ok {
			t.Fatalf("%v: ID reports ok", k)
		}
		if matches(MatchAll, k) || MatchAll.MatchEither(k) {
			t.Fatalf("%v: matched", k)
		}
	}
	if _, err := DecodeFlowID(make([]byte, FlowKeyWireSize-1)); err != ErrTruncated {
		t.Fatalf("short decode: %v", err)
	}
}

// TestOverlapsEither: two IPv4 matches overlap exactly when some key in a
// universe holding a witness for every combination of their fields matches
// both, in either direction.
func TestOverlapsEither(t *testing.T) {
	addrs := []netip.Addr{netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2"), netip.MustParseAddr("10.1.0.1"), netip.MustParseAddr("11.0.0.1"), netip.MustParseAddr("12.0.0.1")}
	ports, protos := []uint16{1, 2, 3}, []uint8{ProtoTCP, ProtoUDP, ProtoICMP}
	var ids []FlowID
	for _, sa := range addrs {
		for _, da := range addrs {
			for _, sp := range ports {
				for _, dp := range ports {
					for _, pr := range protos {
						ids = append(ids, mustID(t, FlowKey{SrcIP: sa, DstIP: da, SrcPort: sp, DstPort: dp, Proto: pr}))
					}
				}
			}
		}
	}
	prefixes := []netip.Prefix{{}, netip.MustParsePrefix("10.0.0.0/8"), netip.MustParsePrefix("10.0.0.0/24"), netip.MustParsePrefix("10.0.0.1/32"), netip.MustParsePrefix("11.0.0.0/8")}
	rng := rand.New(rand.NewSource(26))
	match := func() FieldMatch {
		m := FieldMatch{SrcPrefix: prefixes[rng.Intn(len(prefixes))], DstPrefix: prefixes[rng.Intn(len(prefixes))]}
		if rng.Intn(3) == 0 {
			m.Proto = protos[rng.Intn(2)]
		}
		if rng.Intn(3) == 0 {
			m.SrcPort, m.HasSrcPort = ports[rng.Intn(2)], true
		}
		if rng.Intn(3) == 0 {
			m.DstPort, m.HasDstPort = ports[rng.Intn(2)], true
		}
		return m
	}
	overlaps := 0
	for i := 0; i < 400; i++ {
		a, b := match(), match()
		want := slices.ContainsFunc(ids, func(id FlowID) bool { return a.ForID().MatchEither(id) && b.ForID().MatchEither(id) })
		if got := a.ForID().OverlapsEither(b.ForID()); got != want {
			t.Fatalf("%v and %v: OverlapsEither %v, some key matches both: %v", a, b, got, want)
		}
		if want {
			overlaps++
		}
	}
	if overlaps == 0 || overlaps == 400 {
		t.Fatalf("%d of 400 pairs overlap: the draw tests one side only", overlaps)
	}
}

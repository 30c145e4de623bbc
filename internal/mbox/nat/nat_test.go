package nat

import (
	"errors"
	"net/netip"
	"testing"
	"time"

	"openmb/internal/mbox"
	"openmb/internal/packet"
	"openmb/internal/state"
)

var extIP = netip.MustParseAddr("5.5.5.5")

func outPkt(srcLast byte, srcPort uint16, ts int64) *packet.Packet {
	return &packet.Packet{
		SrcIP: netip.AddrFrom4([4]byte{10, 0, 0, srcLast}), DstIP: netip.MustParseAddr("8.8.8.8"),
		Proto: packet.ProtoTCP, SrcPort: srcPort, DstPort: 443,
		Payload: []byte("req"), Timestamp: ts,
	}
}

func runNAT(t *testing.T, n *NAT) (*mbox.Runtime, *[]*packet.Packet) {
	t.Helper()
	var out []*packet.Packet
	rt := mbox.New("nat1", n, mbox.Options{})
	rt.SetForward(func(p *packet.Packet) { out = append(out, p) })
	t.Cleanup(rt.Close)
	return rt, &out
}

func TestOutboundCreatesMappingAndRewrites(t *testing.T) {
	n := New(extIP)
	rt, out := runNAT(t, n)
	rt.HandlePacket(outPkt(1, 1000, 0))
	rt.Drain(5 * time.Second)
	if len(*out) != 1 {
		t.Fatalf("forwarded: %d", len(*out))
	}
	p := (*out)[0]
	if p.SrcIP != extIP {
		t.Fatalf("src not rewritten: %s", p.SrcIP)
	}
	if n.MappingCount() != 1 {
		t.Fatalf("mappings: %d", n.MappingCount())
	}
	// Same internal endpoint reuses the mapping.
	rt.HandlePacket(outPkt(1, 1000, 1))
	rt.Drain(5 * time.Second)
	if n.MappingCount() != 1 {
		t.Fatalf("mapping duplicated: %d", n.MappingCount())
	}
	if (*out)[1].SrcPort != p.SrcPort {
		t.Fatal("mapping not stable across packets")
	}
}

func TestInboundReverseTranslation(t *testing.T) {
	n := New(extIP)
	rt, out := runNAT(t, n)
	rt.HandlePacket(outPkt(1, 1000, 0))
	rt.Drain(5 * time.Second)
	extPort := (*out)[0].SrcPort

	reply := &packet.Packet{
		SrcIP: netip.MustParseAddr("8.8.8.8"), DstIP: extIP,
		Proto: packet.ProtoTCP, SrcPort: 443, DstPort: extPort,
		Payload: []byte("resp"), Timestamp: 2,
	}
	rt.HandlePacket(reply)
	rt.Drain(5 * time.Second)
	if len(*out) != 2 {
		t.Fatalf("forwarded: %d", len(*out))
	}
	got := (*out)[1]
	if got.DstIP != netip.AddrFrom4([4]byte{10, 0, 0, 1}) || got.DstPort != 1000 {
		t.Fatalf("reverse translation: %s:%d", got.DstIP, got.DstPort)
	}
}

func TestInboundWithoutMappingDrops(t *testing.T) {
	n := New(extIP)
	rt, out := runNAT(t, n)
	rt.HandlePacket(&packet.Packet{
		SrcIP: netip.MustParseAddr("8.8.8.8"), DstIP: extIP,
		Proto: packet.ProtoTCP, SrcPort: 443, DstPort: 33333,
	})
	rt.Drain(5 * time.Second)
	if len(*out) != 0 {
		t.Fatal("unsolicited inbound packet forwarded")
	}
}

func TestIdleExpiry(t *testing.T) {
	n := New(extIP)
	n.Config().Set("idle_timeout_ns", []string{"100"})
	rt, _ := runNAT(t, n)
	rt.HandlePacket(outPkt(1, 1000, 0))
	rt.Drain(5 * time.Second)
	if n.MappingCount() != 1 {
		t.Fatal("no mapping")
	}
	// A later packet from another host triggers expiry of the idle one.
	rt.HandlePacket(outPkt(2, 2000, 1000))
	rt.Drain(5 * time.Second)
	if _, ok := n.Lookup(netip.AddrFrom4([4]byte{10, 0, 0, 1}), 1000, packet.ProtoTCP); ok {
		t.Fatal("idle mapping not expired")
	}
}

func TestCriticalStateFailover(t *testing.T) {
	// The failure-recovery scenario (§2): move the minimal live snapshot
	// (mappings) to a replacement instance; in-progress flows keep their
	// external ports; idle timers restart.
	primary := New(extIP)
	rt, out := runNAT(t, primary)
	for i := byte(1); i <= 5; i++ {
		rt.HandlePacket(outPkt(i, 1000+uint16(i), int64(i)))
	}
	rt.Drain(5 * time.Second)
	extPort, _ := primary.Lookup(netip.AddrFrom4([4]byte{10, 0, 0, 1}), 1001, packet.ProtoTCP)

	replacement := New(extIP)
	err := mbox.ExportPerflow(primary, state.Supporting, packet.MatchAll, func(id packet.FlowID, blob []byte) error {
		return replacement.PutPerflow(state.Supporting, state.Chunk{Key: id.Key(), Blob: blob})
	})
	if err != nil {
		t.Fatal(err)
	}
	sharedBlob, _ := primary.GetShared(state.Supporting, func() {})
	if err := replacement.PutShared(state.Supporting, sharedBlob); err != nil {
		t.Fatal(err)
	}

	if replacement.MappingCount() != 5 {
		t.Fatalf("replacement mappings: %d", replacement.MappingCount())
	}
	gotPort, ok := replacement.Lookup(netip.AddrFrom4([4]byte{10, 0, 0, 1}), 1001, packet.ProtoTCP)
	if !ok || gotPort != extPort {
		t.Fatalf("critical state lost: port %d vs %d", gotPort, extPort)
	}
	// New allocations at the replacement must not collide with ports the
	// primary handed out (the shared allocator cursor moved).
	rt2, out2 := runNAT(t, replacement)
	rt2.HandlePacket(outPkt(9, 9999, 10))
	rt2.Drain(5 * time.Second)
	newPort := (*out2)[0].SrcPort
	for i := byte(1); i <= 5; i++ {
		if p, _ := primary.Lookup(netip.AddrFrom4([4]byte{10, 0, 0, i}), 1000+uint16(i), packet.ProtoTCP); p == newPort {
			t.Fatalf("port %d reallocated after failover", newPort)
		}
	}
	_ = out
}

func TestPortCollisionOnPut(t *testing.T) {
	n := New(extIP)
	rt, _ := runNAT(t, n)
	rt.HandlePacket(outPkt(1, 1000, 0))
	rt.Drain(5 * time.Second)
	extPort, _ := n.Lookup(netip.AddrFrom4([4]byte{10, 0, 0, 1}), 1000, packet.ProtoTCP)
	// A chunk binding a DIFFERENT internal endpoint to the same external
	// port must be rejected.
	blob := make([]byte, mappingWireSize)
	blob[0] = byte(extPort >> 8)
	blob[1] = byte(extPort)
	other := packet.FlowKey{SrcIP: netip.AddrFrom4([4]byte{10, 0, 0, 99}), SrcPort: 9, Proto: packet.ProtoTCP, DstIP: netip.AddrFrom4([4]byte{})}
	if err := n.PutPerflow(state.Supporting, state.Chunk{Key: other, Blob: blob}); !errors.Is(err, ErrPortBound) {
		t.Fatalf("conflicting put: %v, want ErrPortBound", err)
	}
}

func TestGranularityError(t *testing.T) {
	n := New(extIP)
	m, _ := packet.ParseFieldMatch("[nw_dst=8.8.8.8]")
	err := mbox.ExportPerflow(n, state.Supporting, m, func(packet.FlowID, []byte) error { return nil })
	if err == nil {
		t.Fatal("destination-constrained get should fail")
	}
}

func TestIntrospectionEventCodes(t *testing.T) {
	n := New(extIP)
	rt, _ := runNAT(t, n)
	_ = rt
	// Events require a controller connection; here we verify the counter
	// paths don't fire without filters (defaults off).
	rt.HandlePacket(outPkt(1, 1000, 0))
	rt.Drain(5 * time.Second)
	if rt.Metrics().IntroRaised != 0 {
		t.Fatal("introspection raised without filter")
	}
}

func TestStatsAndPassthrough(t *testing.T) {
	n := New(extIP)
	rt, out := runNAT(t, n)
	rt.HandlePacket(outPkt(1, 1000, 0))
	// Traffic neither from the internal prefix nor to the external IP
	// passes through untouched.
	rt.HandlePacket(&packet.Packet{
		SrcIP: netip.MustParseAddr("9.9.9.9"), DstIP: netip.MustParseAddr("8.8.8.8"),
		Proto: packet.ProtoTCP, SrcPort: 1, DstPort: 2,
	})
	rt.Drain(5 * time.Second)
	if len(*out) != 2 {
		t.Fatalf("forwarded: %d", len(*out))
	}
	if (*out)[1].SrcIP != netip.MustParseAddr("9.9.9.9") {
		t.Fatal("passthrough packet modified")
	}
	s := n.Stats(packet.MatchAll)
	if s.SupportPerflowChunks != 1 || s.SupportSharedBytes != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestPutBlobErrors(t *testing.T) {
	n := New(extIP)
	if err := n.PutPerflow(state.Supporting, state.Chunk{Blob: []byte{1}}); err == nil {
		t.Fatal("short blob accepted")
	}
	if err := n.PutPerflow(state.Reporting, state.Chunk{}); err == nil {
		t.Fatal("wrong class accepted")
	}
	if err := n.PutShared(state.Supporting, nil); err == nil {
		t.Fatal("short shared blob accepted")
	}
}

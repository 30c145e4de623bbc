package lb

import (
	"net/netip"
	"testing"
	"time"

	"openmb/internal/mbox"
	"openmb/internal/packet"
	"openmb/internal/state"
)

var (
	vip      = netip.MustParseAddr("1.1.1.100")
	backends = []Backend{
		{IP: netip.MustParseAddr("1.1.1.10"), Port: 8080},
		{IP: netip.MustParseAddr("1.1.1.11"), Port: 8080},
		{IP: netip.MustParseAddr("1.1.1.12"), Port: 8080},
	}
)

func clientPkt(srcLast byte, srcPort uint16) *packet.Packet {
	return &packet.Packet{
		SrcIP: netip.AddrFrom4([4]byte{10, 0, 0, srcLast}), DstIP: vip,
		Proto: packet.ProtoTCP, SrcPort: srcPort, DstPort: 80,
		Payload: []byte("GET /"),
	}
}

func runLB(t *testing.T, l *LB) (*mbox.Runtime, *[]*packet.Packet) {
	t.Helper()
	var out []*packet.Packet
	rt := mbox.New("lb1", l, mbox.Options{})
	rt.SetForward(func(p *packet.Packet) { out = append(out, p) })
	t.Cleanup(rt.Close)
	return rt, &out
}

func TestRoundRobinAssignment(t *testing.T) {
	l := New(vip, 80, backends)
	rt, out := runLB(t, l)
	for i := byte(1); i <= 6; i++ {
		rt.HandlePacket(clientPkt(i, 1000+uint16(i)))
	}
	rt.Drain(5 * time.Second)
	if len(*out) != 6 {
		t.Fatalf("forwarded: %d", len(*out))
	}
	loads := l.BackendLoads()
	for _, b := range backends {
		if loads[b.String()] != 2 {
			t.Fatalf("uneven round robin: %v", loads)
		}
	}
}

func TestAssignmentIsSticky(t *testing.T) {
	l := New(vip, 80, backends)
	rt, out := runLB(t, l)
	rt.HandlePacket(clientPkt(1, 1000))
	rt.HandlePacket(clientPkt(2, 2000))
	rt.HandlePacket(clientPkt(1, 1000))
	rt.Drain(5 * time.Second)
	if (*out)[0].DstIP != (*out)[2].DstIP {
		t.Fatal("same flow sent to different backends")
	}
	if l.AssignmentCount() != 2 {
		t.Fatalf("assignments: %d", l.AssignmentCount())
	}
}

func TestNonVIPPassthrough(t *testing.T) {
	l := New(vip, 80, backends)
	rt, out := runLB(t, l)
	p := &packet.Packet{
		SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("9.9.9.9"),
		Proto: packet.ProtoTCP, SrcPort: 5, DstPort: 443,
	}
	rt.HandlePacket(p)
	rt.Drain(5 * time.Second)
	if len(*out) != 1 || (*out)[0].DstIP != netip.MustParseAddr("9.9.9.9") {
		t.Fatal("non-VIP traffic should pass through unmodified")
	}
	if l.AssignmentCount() != 0 {
		t.Fatal("passthrough created an assignment")
	}
}

func TestGranularityErrorOnDstConstraint(t *testing.T) {
	// The paper's example: Balance keys by source IP/port only; a
	// destination-constrained get is finer than the keying granularity.
	l := New(vip, 80, backends)
	m, _ := packet.ParseFieldMatch("[nw_dst=1.1.1.10]")
	err := l.GetPerflow(state.Supporting, m, func(packet.FlowKey, func(func()) ([]byte, error)) error { return nil })
	if err == nil {
		t.Fatal("destination-constrained get should fail")
	}
	m2, _ := packet.ParseFieldMatch("[tp_dst=80]")
	if err := l.GetPerflow(state.Supporting, m2, func(packet.FlowKey, func(func()) ([]byte, error)) error { return nil }); err == nil {
		t.Fatal("destination-port get should fail")
	}
	// Source constraints are at or coarser than the keying granularity.
	m3, _ := packet.ParseFieldMatch("[nw_src=10.0.0.0/24]")
	if err := l.GetPerflow(state.Supporting, m3, func(packet.FlowKey, func(func()) ([]byte, error)) error { return nil }); err != nil {
		t.Fatalf("source-constrained get should succeed: %v", err)
	}
}

func TestMovePreservesAssignments(t *testing.T) {
	// R1/R4: moving in-progress flows to another balancer must not
	// reassign them to different servers mid-transaction.
	src := New(vip, 80, backends)
	rt, _ := runLB(t, src)
	for i := byte(1); i <= 4; i++ {
		rt.HandlePacket(clientPkt(i, 1000+uint16(i)))
	}
	rt.Drain(5 * time.Second)
	want, _ := src.Assignment(netip.AddrFrom4([4]byte{10, 0, 0, 1}), 1001, packet.ProtoTCP)

	dst := New(vip, 80, backends)
	err := src.GetPerflow(state.Supporting, packet.MatchAll, func(key packet.FlowKey, build func(func()) ([]byte, error)) error {
		blob, err := build(func() {})
		if err != nil {
			return err
		}
		return dst.PutPerflow(state.Supporting, state.Chunk{Key: key, Blob: blob})
	})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := dst.Assignment(netip.AddrFrom4([4]byte{10, 0, 0, 1}), 1001, packet.ProtoTCP)
	if !ok || got != want {
		t.Fatalf("assignment changed across move: %v vs %v", got, want)
	}
	// A continued flow at the destination sticks to the same server.
	rtDst, outDst := runLB(t, dst)
	rtDst.HandlePacket(clientPkt(1, 1001))
	rtDst.Drain(5 * time.Second)
	if (*outDst)[0].DstIP != want.IP {
		t.Fatal("moved flow switched servers")
	}
}

func TestPutMergePrefersIncomingBackend(t *testing.T) {
	dst := New(vip, 80, backends)
	rt, _ := runLB(t, dst)
	rt.HandlePacket(clientPkt(1, 1000)) // locally assigned (raced the move)
	rt.Drain(5 * time.Second)
	incoming := Backend{IP: netip.MustParseAddr("1.1.1.12"), Port: 8080}
	key := packet.FlowKey{SrcIP: netip.AddrFrom4([4]byte{10, 0, 0, 1}), SrcPort: 1000, Proto: packet.ProtoTCP}
	blob := assignmentCodec{}.Append(nil, &assignment{Backend: incoming, Packets: 7})
	if err := dst.PutPerflow(state.Supporting, state.Chunk{Key: key, Blob: blob}); err != nil {
		t.Fatal(err)
	}
	got, _ := dst.Assignment(netip.AddrFrom4([4]byte{10, 0, 0, 1}), 1000, packet.ProtoTCP)
	if got != incoming {
		t.Fatalf("incoming binding should win: %v", got)
	}
}

func TestBackendConfigUpdate(t *testing.T) {
	l := New(vip, 80, backends[:1])
	rt, out := runLB(t, l)
	rt.HandlePacket(clientPkt(1, 1000))
	rt.Drain(5 * time.Second)
	// Reconfigure: R3, dynamically modify MB configurations.
	l.Config().Set("backends", []string{"2.2.2.2:9090"})
	rt.HandlePacket(clientPkt(2, 2000))
	rt.Drain(5 * time.Second)
	if (*out)[1].DstIP != netip.MustParseAddr("2.2.2.2") || (*out)[1].DstPort != 9090 {
		t.Fatalf("new backend set not applied: %v", (*out)[1])
	}
	// Existing assignment unaffected.
	rt.HandlePacket(clientPkt(1, 1000))
	rt.Drain(5 * time.Second)
	if (*out)[2].DstIP != backends[0].IP {
		t.Fatal("existing assignment rebound on config change")
	}
}

func TestParseBackendErrors(t *testing.T) {
	for _, s := range []string{"", "1.2.3.4", "notanip:80", "1.2.3.4:0", "1.2.3.4:99999"} {
		if _, err := ParseBackend(s); err == nil {
			t.Errorf("%q: expected error", s)
		}
	}
	b, err := ParseBackend("1.2.3.4:80")
	if err != nil || b.Port != 80 {
		t.Fatalf("good backend: %v %v", b, err)
	}
}

func TestNoSharedState(t *testing.T) {
	l := New(vip, 80, backends)
	if _, err := l.GetShared(state.Supporting, func() {}); err == nil {
		t.Fatal("lb has no shared state")
	}
	if err := l.PutShared(state.Supporting, nil); err == nil {
		t.Fatal("lb has no shared state")
	}
}

func TestPutBlobErrors(t *testing.T) {
	l := New(vip, 80, backends)
	key := packet.FlowKey{SrcIP: netip.AddrFrom4([4]byte{10, 0, 0, 1}), SrcPort: 1, Proto: packet.ProtoTCP}
	for _, blob := range []string{"garbage", "1.1.1.1:80", "notanip:80 5", "1.1.1.1:80 notanumber", "\x00\x00\x00\x00\x00\x00\x00\x07\x1f\x90\x01\x01\x01"} {
		if err := l.PutPerflow(state.Supporting, state.Chunk{Key: key, Blob: []byte(blob)}); err == nil {
			t.Errorf("%q: expected error", blob)
		}
	}
	// A zero-length blob is a tombstone: accepted, and installs nothing.
	if err := l.PutPerflow(state.Supporting, state.Chunk{Key: key}); err != nil || l.AssignmentCount() != 0 {
		t.Fatalf("tombstone put: err %v, %d assignments", err, l.AssignmentCount())
	}
}

func TestStatsCountsAssignments(t *testing.T) {
	l := New(vip, 80, backends)
	rt, _ := runLB(t, l)
	for i := byte(1); i <= 3; i++ {
		rt.HandlePacket(clientPkt(i, uint16(i)))
	}
	rt.Drain(5 * time.Second)
	s := l.Stats(packet.MatchAll)
	if s.SupportPerflowChunks != 3 {
		t.Fatalf("stats: %+v", s)
	}
}

package openmb

import (
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"openmb/internal/core"
	"openmb/internal/mbox"
	"openmb/internal/mbox/nat"
	"openmb/internal/packet"
	"openmb/internal/sbi"
)

// TestFailedMoveClearsSourceMarks: a move that fails mid-transfer ends its
// transaction at the source. Here the destination NAT already handed out
// one of the external ports the source's mappings use, so its put refuses
// that mapping ("already bound") and the move fails. The source must be
// left with no key marked — a marked key keeps raising reprocess events
// that no transaction routes — and must still translate the flow to the
// same external port: a failed move deletes nothing at the source.
func TestFailedMoveClearsSourceMarks(t *testing.T) {
	const flows = 8
	ctrl := core.NewController(core.Options{QuietPeriod: 40 * time.Millisecond})
	tr := sbi.NewMemTransport()
	if err := ctrl.Serve(tr, "controller"); err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	var mu sync.Mutex
	var out1 []*packet.Packet
	nat1, nat2 := nat.New(netip.MustParseAddr("198.51.100.1")), nat.New(netip.MustParseAddr("198.51.100.2"))
	rt1 := mbox.New("nat1", nat1, mbox.Options{Forward: func(p *packet.Packet) {
		mu.Lock()
		out1 = append(out1, p)
		mu.Unlock()
	}})
	rt2 := mbox.New("nat2", nat2, mbox.Options{})
	defer rt1.Close()
	defer rt2.Close()
	for name, rt := range map[string]*mbox.Runtime{"nat1": rt1, "nat2": rt2} {
		if err := rt.Connect(tr, "controller"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := ctrl.WaitForMB(name, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	outbound := func(src netip.Addr, port uint16) *packet.Packet {
		return &packet.Packet{SrcIP: src, DstIP: netip.MustParseAddr("203.0.113.9"), Proto: packet.ProtoTCP, SrcPort: port, DstPort: 80}
	}
	client := netip.MustParseAddr("10.0.0.1")
	for i := 0; i < flows; i++ {
		rt1.HandlePacket(outbound(client, uint16(1000+i)))
	}
	// A flow of nat2's own takes the first external port nat1 handed out.
	rt2.HandlePacket(outbound(netip.MustParseAddr("10.9.9.9"), 4000))
	if !rt1.Drain(5*time.Second) || !rt2.Drain(5*time.Second) {
		t.Fatal("NATs did not drain")
	}
	port, ok := nat1.Lookup(client, 1000, packet.ProtoTCP)
	if !ok {
		t.Fatal("nat1 has no mapping for the first flow")
	}
	if theirs, _ := nat2.Lookup(netip.MustParseAddr("10.9.9.9"), 4000, packet.ProtoTCP); theirs != port {
		t.Fatalf("nat2 bound port %d, nat1's first flow has %d: no collision to test", theirs, port)
	}

	err := ctrl.MoveInternal("nat1", "nat2", packet.MatchAll)
	if err == nil || !strings.Contains(err.Error(), "already bound") {
		t.Fatalf("move into a NAT holding the port: %v, want an already-bound refusal", err)
	}
	if got := rt1.MarkedKeys(); got != 0 {
		t.Fatalf("source keeps %d keys marked after the failed move", got)
	}
	if !ctrl.WaitTxns(5 * time.Second) {
		t.Fatal("transactions did not settle")
	}
	if got := ctrl.LiveTxns(); got != 0 {
		t.Fatalf("%d transactions leaked", got)
	}

	mu.Lock()
	out1 = nil
	mu.Unlock()
	rt1.HandlePacket(outbound(client, 1000))
	if !rt1.Drain(5 * time.Second) {
		t.Fatal("nat1 did not drain")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(out1) != 1 || out1[0].SrcPort != port {
		t.Fatalf("after the failed move nat1 emitted %d packets (want 1 from port %d): %+v", len(out1), port, out1)
	}
	if got := rt1.Metrics().EventsRaised; got != 0 {
		t.Fatalf("the source raised %d reprocess events for a move that failed", got)
	}
}

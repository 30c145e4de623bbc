package openmb

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"openmb/internal/core"
	"openmb/internal/mbox"
	"openmb/internal/mbox/lb"
	"openmb/internal/packet"
	"openmb/internal/sbi"
)

// TestLBMoveOverWire: a load balancer's per-flow state — keyed by source
// endpoint only, destination unset — moves through the controller and over
// either codec, not just between two Logic values in one process. The
// unset address is the wildcard 0 on both sides of the wire, so every moved
// flow's next packet at the destination hits the imported assignment and
// goes to its original backend.
func TestLBMoveOverWire(t *testing.T) {
	for _, codec := range []sbi.Codec{sbi.CodecBinary, sbi.CodecJSON} {
		t.Run(string(codec), func(t *testing.T) { lbMoveOverWire(t, codec) })
	}
}

func lbMoveOverWire(t *testing.T, codec sbi.Codec) {
	const flows = 64
	vip := netip.MustParseAddr("1.1.1.100")
	backends := []lb.Backend{
		{IP: netip.MustParseAddr("1.1.1.10"), Port: 8080},
		{IP: netip.MustParseAddr("1.1.1.11"), Port: 8080},
		{IP: netip.MustParseAddr("1.1.1.12"), Port: 8080},
	}
	clientPkt := func(i int) *packet.Packet {
		return &packet.Packet{
			SrcIP: netip.AddrFrom4([4]byte{10, 0, byte(i / 200), byte(1 + i%200)}), DstIP: vip,
			Proto: packet.ProtoTCP, SrcPort: uint16(1000 + i), DstPort: 80, Payload: []byte("GET /"),
		}
	}

	ctrl := core.NewController(core.Options{QuietPeriod: 40 * time.Millisecond})
	tr := sbi.NewMemTransport()
	if err := ctrl.Serve(tr, "controller"); err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	var mu sync.Mutex
	var out2 []*packet.Packet
	lb1, lb2 := lb.New(vip, 80, backends), lb.New(vip, 80, backends)
	rt1 := mbox.New("lb1", lb1, mbox.Options{Codec: codec})
	rt2 := mbox.New("lb2", lb2, mbox.Options{Codec: codec})
	rt2.SetForward(func(p *packet.Packet) {
		mu.Lock()
		out2 = append(out2, p)
		mu.Unlock()
	})
	defer rt1.Close()
	defer rt2.Close()
	for name, rt := range map[string]*mbox.Runtime{"lb1": rt1, "lb2": rt2} {
		if err := rt.Connect(tr, "controller"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := ctrl.WaitForMB(name, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < flows; i++ {
		rt1.HandlePacket(clientPkt(i))
		rt1.HandlePacket(clientPkt(i))
	}
	if !rt1.Drain(5 * time.Second) {
		t.Fatal("lb1 did not drain")
	}
	want := make([]lb.Backend, flows)
	for i := range want {
		p := clientPkt(i)
		b, ok := lb1.Assignment(p.SrcIP, p.SrcPort, p.Proto)
		if !ok {
			t.Fatalf("flow %d has no assignment at lb1", i)
		}
		want[i] = b
	}
	before, err := ctrl.Stats("lb1", packet.MatchAll)
	if err != nil || before.SupportPerflowChunks != flows {
		t.Fatalf("lb1 stats before the move: %+v, %v", before, err)
	}

	if err := ctrl.MoveInternal("lb1", "lb2", packet.MatchAll); err != nil {
		t.Fatalf("move: %v", err)
	}
	if !ctrl.WaitTxns(10 * time.Second) {
		t.Fatal("transaction did not complete")
	}
	after1, err1 := ctrl.Stats("lb1", packet.MatchAll)
	after2, err2 := ctrl.Stats("lb2", packet.MatchAll)
	if err1 != nil || err2 != nil || after1.SupportPerflowChunks != 0 ||
		after2.SupportPerflowChunks != flows || after2.SupportPerflowBytes != before.SupportPerflowBytes {
		t.Fatalf("stats after the move: lb1 %+v (%v), lb2 %+v (%v), lb1 before %+v", after1, err1, after2, err2, before)
	}

	// Every flow's next packet, at the destination: the imported assignment
	// is found (no new one is made) and names the original backend.
	for i := 0; i < flows; i++ {
		rt2.HandlePacket(clientPkt(i))
	}
	if !rt2.Drain(5 * time.Second) {
		t.Fatal("lb2 did not drain")
	}
	if n := lb2.AssignmentCount(); n != flows {
		t.Fatalf("lb2 holds %d assignments after traffic, want the %d imported", n, flows)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(out2) != flows {
		t.Fatalf("lb2 forwarded %d packets, want %d", len(out2), flows)
	}
	for i, p := range out2 {
		if p.DstIP != want[i].IP || p.DstPort != want[i].Port {
			t.Fatalf("flow %d went to %s:%d at lb2, its backend at lb1 was %s", i, p.DstIP, p.DstPort, want[i])
		}
	}
}

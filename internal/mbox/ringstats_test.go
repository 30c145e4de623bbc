package mbox

// Regression tests for the tear-proof ingress snapshot the elasticity loop
// samples. The /metrics scrape contract tolerates cross-series tearing; a
// control loop differencing (depth, drops) pairs cannot — a snapshot whose
// depth predates its drop counters would pair "ring not yet full" with
// "ring shed packets", which reads as load appearing from nowhere.

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/state"
)

// gateLogic blocks every ProcessBurst call until the gate opens, wedging the
// worker so tests control queue depth exactly.
type gateLogic struct {
	gate chan struct{}
	cfg  *state.ConfigTree
}

func newGateLogic() *gateLogic {
	return &gateLogic{gate: make(chan struct{}), cfg: state.NewConfigTree()}
}

func (l *gateLogic) Kind() string                                       { return "gate" }
func (l *gateLogic) ProcessBurst(ctxs []Context, pkts []*packet.Packet) { <-l.gate }
func (l *gateLogic) GetPerflow(state.Class, packet.FieldMatch, func(packet.FlowKey, func(func()) ([]byte, error)) error) error {
	return nil
}
func (l *gateLogic) PutPerflow(state.Class, state.Chunk) error              { return nil }
func (l *gateLogic) DelPerflow(state.Class, packet.FieldMatch) (int, error) { return 0, nil }
func (l *gateLogic) GetShared(state.Class, func()) ([]byte, error)          { return nil, ErrNoSharedState }
func (l *gateLogic) PutShared(state.Class, []byte) error                    { return nil }
func (l *gateLogic) Stats(packet.FieldMatch) sbi.StatsReply                 { return sbi.StatsReply{} }
func (l *gateLogic) Config() *state.ConfigTree                              { return l.cfg }

func ringPacket(i int) *packet.Packet {
	return &packet.Packet{
		SrcIP:   netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}),
		DstIP:   netip.AddrFrom4([4]byte{1, 1, 1, 1}),
		Proto:   packet.ProtoTCP,
		SrcPort: uint16(1024 + i),
		DstPort: 80,
	}
}

// TestRingStatsSnapshot pins the single-observer arithmetic: with the
// worker wedged on one packet, a filled ring plus K overflow pushes must
// appear in ONE snapshot as exactly {Live: capacity, Dropped: K}.
func TestRingStatsSnapshot(t *testing.T) {
	const q = 8
	logic := newGateLogic()
	rt := New("ringstats", logic, Options{QueueSize: q})
	defer rt.Close()

	// Wedge the worker, then wait until it has popped the first packet so
	// ring occupancy is deterministic.
	rt.HandlePacket(ringPacket(0))
	deadline := time.Now().Add(2 * time.Second)
	for rt.RingStats().Live != 0 || rt.pending.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the wedge packet")
		}
		time.Sleep(100 * time.Microsecond)
	}

	for i := 0; i < q; i++ { // fill
		rt.HandlePacket(ringPacket(1 + i))
	}
	const overflow = 5
	for i := 0; i < overflow; i++ { // shed
		rt.HandlePacket(ringPacket(100 + i))
	}

	rs := rt.RingStats()
	if rs.Live != q || rs.Capacity != q || rs.Replay != 0 {
		t.Fatalf("ring = %+v, want live %d of %d", rs, q, q)
	}
	if rs.DroppedPackets != overflow || rs.DroppedReplays != 0 {
		t.Fatalf("drops = %d/%d, want %d/0", rs.DroppedPackets, rs.DroppedReplays, overflow)
	}
	if m := rt.Metrics(); m.DroppedPackets != rs.DroppedPackets {
		t.Fatalf("Metrics drops %d != RingStats drops %d", m.DroppedPackets, rs.DroppedPackets)
	}

	close(logic.gate)
	if !rt.Drain(5 * time.Second) {
		t.Fatal("runtime did not drain")
	}
	rs = rt.RingStats()
	if rs.Live != 0 || rs.Replay != 0 {
		t.Fatalf("post-drain ring = %+v, want empty", rs)
	}
	if rs.DroppedPackets != overflow {
		t.Fatalf("post-drain drops = %d, want %d (cumulative)", rs.DroppedPackets, overflow)
	}
}

// TestRingStatsNoTornSheds is the concurrent tear regression. With the
// worker wedged, pops never happen, so a drop can occur only when the ring
// is full — and once it fills it stays full. Any snapshot pairing
// DroppedPackets > 0 with Live < Capacity is therefore torn: its depth was
// read before sheds the drop counters already include. The double-read
// stabilization in RingStats makes that pairing impossible; a sampler racing
// the producers must never observe it.
func TestRingStatsNoTornSheds(t *testing.T) {
	const q = 16
	logic := newGateLogic()
	rt := New("ringstats-torn", logic, Options{QueueSize: q})

	// Wedge the worker on a first packet BEFORE the producers start, so its
	// one batch pop (of exactly that packet) is already behind us — from
	// here on nothing ever leaves the ring and the invariant is exact.
	rt.HandlePacket(ringPacket(0))
	deadline := time.Now().Add(2 * time.Second)
	for rt.RingStats().Live != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the wedge packet")
		}
		time.Sleep(100 * time.Microsecond)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				rt.HandlePacket(ringPacket(w*50 + i%50))
				i++
			}
		}(w)
	}

	var prevDrops uint64
	for n := 0; n < 20000; n++ {
		rs := rt.RingStats()
		if rs.Live < 0 || rs.Live > rs.Capacity || rs.Replay != 0 {
			t.Errorf("snapshot %d: impossible depth %+v", n, rs)
			break
		}
		if rs.DroppedPackets < prevDrops {
			t.Errorf("snapshot %d: drops went backwards (%d -> %d)", n, prevDrops, rs.DroppedPackets)
			break
		}
		prevDrops = rs.DroppedPackets
		// The pinned invariant: sheds imply a full ring in the SAME
		// snapshot. The worker was wedged before any producer started, so
		// nothing ever pops: once the ring fills it stays full, and a drop
		// can only ever be counted against a full ring.
		if rs.DroppedPackets > 0 && rs.Live != rs.Capacity {
			t.Errorf("snapshot %d: torn read — %d drops paired with depth %d/%d",
				n, rs.DroppedPackets, rs.Live, rs.Capacity)
			break
		}
	}
	close(stop)
	wg.Wait()
	close(logic.gate)
	rt.Close()
}

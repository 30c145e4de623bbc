package eval

import (
	"runtime"
	"testing"
	"time"

	"openmb/internal/racedetect"
)

// TestChainPacketBudget holds the burst chain to the per-packet budget of
// ARCHITECTURE.md ("Burst data path: the per-packet budget") where a machine
// can check it: 64 Ki pooled packets through monitor→NAT→IPS after warm-up
// allocate nothing, draw no new packet from the pool (every packet released
// at the sink comes back to the source), are all delivered, and leave the
// pool balanced.
func TestChainPacketBudget(t *testing.T) {
	const flows = 256
	rig := NewChainRig(flows)
	defer rig.Close()
	// Warm-up: every flow's state at every hop — the IPS appends to a
	// connection's history string for its first 64 packets — the pool grown
	// to the in-flight window, the rings' and emit buffers' capacity.
	if err := rig.Inject(flows * 128); err != nil {
		t.Fatal(err)
	}
	const packets = 64 << 10
	before, delivered := rig.pool.Stats(), rig.Delivered()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := rig.Inject(packets); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	after := rig.pool.Stats()

	if got := rig.Delivered() - delivered; got != packets {
		t.Errorf("delivered %d of %d injected packets", got, packets)
	}
	// Not a single allocation per burst, let alone per packet. (A few come
	// from the Go runtime's own goroutines and from the pool reaching a new
	// high-water mark within the bound below.)
	if allocs := m1.Mallocs - m0.Mallocs; !racedetect.Enabled && allocs > packets/chainBurst/2 {
		t.Errorf("%d allocations for %d packets in %d bursts, want 0 per packet", allocs, packets, packets/chainBurst)
	}
	// The pool allocates only when no free packet sits on either of its
	// sides, so it never holds more packets than were borrowed at once: the
	// source's window plus the burst it is filling, the burst the sink has
	// counted but not yet released, and the NAT's rewritten copies of the
	// burst it is processing.
	if maxBorrowed := uint64(chainOutstanding + 3*chainBurst); after.News > maxBorrowed {
		t.Errorf("pool holds %d packets (%d after warm-up), at most %d are ever borrowed at once", after.News, before.News, maxBorrowed)
	}
	for _, rt := range rig.rts {
		if !rt.Drain(10 * time.Second) {
			t.Fatalf("%s did not drain", rt.Name())
		}
		if m := rt.Metrics(); m.DroppedPackets != 0 {
			t.Errorf("%s shed %d packets at its ring", rt.Name(), m.DroppedPackets)
		}
	}
	if st := rig.pool.Stats(); st.Outstanding != 0 || st.FreeLen != int(st.News) || st.Gets != st.Releases {
		t.Errorf("pool not balanced after drain: %+v", st)
	}
}

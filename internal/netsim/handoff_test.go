package netsim

import (
	"sync"
	"testing"
	"time"

	"openmb/internal/packet"
)

// burstRecorder is an endpoint that keeps every delivered packet, and the
// arrival time of each HandleBurst call, until release.
type burstRecorder struct {
	mu    sync.Mutex
	calls [][]*packet.Packet
	at    []time.Time
}

func (r *burstRecorder) HandleBurst(ps []*packet.Packet) {
	r.mu.Lock()
	r.calls = append(r.calls, append([]*packet.Packet(nil), ps...))
	r.at = append(r.at, time.Now())
	r.mu.Unlock()
}

func (r *burstRecorder) release() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.calls {
		for _, p := range c {
			p.Release()
		}
	}
	r.calls = nil
}

// TestLinkVerdictsInsideBurst sends one burst over a link whose hook drops
// and duplicates by packet ID: the survivors must arrive in send order, each
// duplicate's clone right after its original, in fewer HandleBurst calls
// than packets; on a latency link each packet goes out alone, no earlier
// than its own delay after the one before it.
func TestLinkVerdictsInsideBurst(t *testing.T) {
	t.Run("hook", func(t *testing.T) {
		n := New()
		defer n.Stop()
		pool := packet.NewPool(packet.PoolOptions{Accounting: true})
		rec := &burstRecorder{}
		NewHost(n, "a", 0)
		n.Attach("b", rec)
		if err := n.Connect("a", "b", 0); err != nil {
			t.Fatal(err)
		}
		drop := func(id uint16) bool { return id%3 == 2 }
		dup := func(id uint16) bool { return id%5 == 4 }
		if err := n.SetFault("a", "b", func(p *packet.Packet) Fault {
			switch {
			case drop(p.ID):
				return FaultDrop
			case dup(p.ID):
				return FaultDuplicate
			}
			return FaultNone
		}); err != nil {
			t.Fatal(err)
		}

		// The recorder keeps every delivery, so a surviving original is
		// never recycled and its pointer tells it from a clone. Dropped
		// packets are left out: the pool may hand one out again as a
		// clone.
		const count = 64
		survivors := map[*packet.Packet]bool{}
		ps := make([]*packet.Packet, count)
		for i := range ps {
			ps[i] = pool.Clone(mkPacket(1, 80))
			ps[i].ID = uint16(i)
			if !drop(ps[i].ID) {
				survivors[ps[i]] = true
			}
		}
		// Each delivery is an ID and whether it is the packet that was sent
		// (the original) or a clone.
		type arrival struct {
			id   uint16
			orig bool
		}
		var want []arrival
		drops := 0
		for i := uint16(0); i < count; i++ {
			switch {
			case drop(i):
				drops++
			case dup(i):
				want = append(want, arrival{i, true}, arrival{i, false})
			default:
				want = append(want, arrival{i, true})
			}
		}
		if err := n.SendBurst("a", "b", ps); err != nil {
			t.Fatal(err)
		}
		if !n.Quiesce(5 * time.Second) {
			t.Fatal("network did not quiesce")
		}

		var got []arrival
		for _, c := range rec.calls {
			for _, p := range c {
				got = append(got, arrival{p.ID, survivors[p]})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("delivered %d packets, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("delivery %d is %+v, want %+v (survivors in send order, each clone right after its original)", i, got[i], want[i])
			}
		}
		if n.Delivered() != uint64(len(want)) || n.Dropped() != uint64(drops) {
			t.Fatalf("Delivered()=%d Dropped()=%d, want %d and %d", n.Delivered(), n.Dropped(), len(want), drops)
		}
		if len(rec.calls) >= len(want) {
			t.Fatalf("%d HandleBurst calls for %d packets: the survivors were not handed over in runs", len(rec.calls), len(want))
		}
		rec.release()
		if err := pool.CheckLeaks(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("latency", func(t *testing.T) {
		const latency, count = time.Millisecond, 8
		n := New()
		defer n.Stop()
		rec := &burstRecorder{}
		NewHost(n, "a", 0)
		n.Attach("b", rec)
		if err := n.Connect("a", "b", latency); err != nil {
			t.Fatal(err)
		}
		ps := make([]*packet.Packet, count)
		for i := range ps {
			ps[i] = mkPacket(1, 80)
			ps[i].ID = uint16(i)
		}
		start := time.Now()
		if err := n.SendBurst("a", "b", ps); err != nil {
			t.Fatal(err)
		}
		if !n.Quiesce(5 * time.Second) {
			t.Fatal("network did not quiesce")
		}
		if len(rec.calls) != count {
			t.Fatalf("%d HandleBurst calls, want %d one-packet calls", len(rec.calls), count)
		}
		prev := start
		for i, c := range rec.calls {
			if len(c) != 1 || c[0].ID != uint16(i) {
				t.Fatalf("call %d carried %d packets (first ID %d), want packet %d alone", i, len(c), c[0].ID, i)
			}
			if d := rec.at[i].Sub(prev); d < latency {
				t.Fatalf("packet %d arrived %v after the one before it, want >= %v", i, d, latency)
			}
			prev = rec.at[i]
		}
	})
}

// blockingEndpoint holds each HandleBurst call until release is closed.
type blockingEndpoint struct {
	entered chan struct{}
	release chan struct{}
}

func (b *blockingEndpoint) HandleBurst(ps []*packet.Packet) {
	b.entered <- struct{}{}
	<-b.release
	for _, p := range ps {
		p.Release()
	}
}

// TestQuiesceWaitsOnSignal holds one packet inside an endpoint: Quiesce must
// time out while it is there, and once it is released two concurrent
// waiters must both see the network go idle at once — the first passes the
// idle token on to the second.
func TestQuiesceWaitsOnSignal(t *testing.T) {
	n := New()
	defer n.Stop()
	ep := &blockingEndpoint{entered: make(chan struct{}, 1), release: make(chan struct{})}
	n.Attach("b", ep)
	if err := n.Inject("b", mkPacket(1, 80)); err != nil {
		t.Fatal(err)
	}
	<-ep.entered
	if n.Quiesce(50 * time.Millisecond) {
		t.Fatal("Quiesce returned true while a delivery was in progress")
	}

	const waiters = 2
	var wg sync.WaitGroup
	returned := make(chan time.Time, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !n.Quiesce(5 * time.Second) {
				t.Error("Quiesce timed out after the delivery was released")
			}
			returned <- time.Now()
		}()
	}
	time.Sleep(20 * time.Millisecond) // let both waiters block
	released := time.Now()
	close(ep.release)
	wg.Wait()
	close(returned)
	for at := range returned {
		if d := at.Sub(released); d > 100*time.Millisecond {
			t.Fatalf("a Quiesce waiter returned %v after the network went idle, want < 100ms", d)
		}
	}
}

package mbox

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"openmb/internal/packet"
)

// burstLog wedges the worker on its first burst until the gate opens and
// ignores that burst's packets; every later burst is recorded by size, its
// packets counted as state updates and emitted.
type burstLog struct {
	*gateLogic
	wedged  bool
	bursts  []int
	updates int
}

func (l *burstLog) ProcessBurst(ctxs []Context, pkts []*packet.Packet) {
	if !l.wedged {
		l.wedged = true
		<-l.gate
		return
	}
	l.bursts = append(l.bursts, len(pkts))
	for i, p := range pkts {
		l.updates++
		ctxs[i].Emit(p)
	}
}

// TestReplayAndLiveShareABurst queues K replays and L live packets behind a
// wedged worker, so they pop as one batch and reach the logic as one burst:
// each packet's Context must still say whether it is a replay, so the live
// packets are counted as processed and emitted while the replays apply
// their state updates with their emits suppressed.
func TestReplayAndLiveShareABurst(t *testing.T) {
	const k, l = 3, 5
	logic := &burstLog{gateLogic: newGateLogic()}
	rt := New("share", logic, Options{})
	defer rt.Close()
	var mu sync.Mutex
	var forwarded []packet.FlowID
	rt.SetForward(func(p *packet.Packet) {
		mu.Lock()
		forwarded = append(forwarded, p.FlowID())
		mu.Unlock()
		p.Release()
	})

	rt.HandlePacket(ringPacket(0)) // the wedge
	for deadline := time.Now().Add(2 * time.Second); rt.RingStats().Live != 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the wedge packet")
		}
	}
	var want []packet.FlowID
	for i := 0; i < l; i++ {
		p := ringPacket(100 + i)
		want = append(want, p.FlowID())
		rt.HandlePacket(p)
	}
	for i := 0; i < k; i++ {
		rt.enqueueReplay(ringPacket(1+i), false)
	}
	close(logic.gate)
	if !rt.Drain(5 * time.Second) {
		t.Fatal("runtime did not drain")
	}

	if !reflect.DeepEqual(logic.bursts, []int{k + l}) {
		t.Fatalf("bursts after the wedge: %v, want one of %d", logic.bursts, k+l)
	}
	if logic.updates != k+l {
		t.Errorf("state updates: %d, want %d", logic.updates, k+l)
	}
	m := rt.Metrics()
	// Processed also counts the wedge packet.
	if m.Replayed != k || m.Processed != l+1 || m.Emitted != l || m.SuppressedEmits != k {
		t.Errorf("replayed %d processed %d emitted %d suppressed %d, want %d, %d, %d, %d",
			m.Replayed, m.Processed, m.Emitted, m.SuppressedEmits, k, l+1, l, k)
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(forwarded, want) {
		t.Errorf("forwarded %v, want the live packets %v", forwarded, want)
	}
}

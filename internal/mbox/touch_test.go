package mbox_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openmb/internal/mbox"
	"openmb/internal/mbox/mbtest"
	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/state"
)

// touchRig drives a counter middlebox with traffic on one goroutine while
// the test runs southbound operations on another, and keeps the books the
// exactly-once check needs: packets sent per flow, reprocess events received
// per flow and for shared state.
type touchRig struct {
	t     *testing.T
	h     *harness
	flows int

	sent      []uint64 // per flow, written by the feeding goroutine only
	sentTotal atomic.Uint64

	mu       sync.Mutex
	evByKey  map[packet.FlowKey]uint64
	evShared uint64
	evTotal  uint64
}

func newTouchRig(t *testing.T, flows int) *touchRig {
	logic := mbtest.NewCounterLogic(8)
	logic.Preload(flows) // every flow's record exists (count 1) before any get
	r := &touchRig{t: t, h: newHarness(t, logic), flows: flows, sent: make([]uint64, flows), evByKey: map[packet.FlowKey]uint64{}}
	go func() {
		for m := range r.h.events {
			m.EachEvent(func(ev *sbi.Event) {
				r.mu.Lock()
				r.evTotal++
				if ev.Shared {
					r.evShared++
				} else {
					r.evByKey[ev.Key]++
				}
				r.mu.Unlock()
			})
		}
	}()
	return r
}

// feed sends packets on seeded random flows in bursts of seeded random size
// until it has sent at least min packets and stop is set, keeping the ingress
// ring far from full so that nothing is shed.
func (r *touchRig) feed(rng *rand.Rand, min uint64, stop *atomic.Bool) {
	start := r.sentTotal.Load()
	for r.sentTotal.Load()-start < min || !stop.Load() {
		for r.sentTotal.Load()-r.h.rt.Metrics().Processed > 2048 {
			runtime.Gosched()
		}
		burst := make([]*packet.Packet, 1+rng.Intn(48))
		for i := range burst {
			f := rng.Intn(r.flows)
			burst[i] = mbtest.PacketForFlow(f)
			r.sent[f]++
		}
		r.h.rt.HandleBurst(burst)
		r.sentTotal.Add(uint64(len(burst)))
	}
}

// during runs op once the feeding goroutine has sent `after` more packets,
// keeps the traffic going for 300 packets past op's return, then waits for
// the runtime to drain and for every raised event to arrive.
func (r *touchRig) during(rng *rand.Rand, after uint64, op func()) {
	r.t.Helper()
	var stop atomic.Bool
	done := make(chan struct{})
	start := r.sentTotal.Load()
	go func() {
		defer close(done)
		r.feed(rng, 0, &stop)
	}()
	waitSent := func(n uint64) {
		for r.sentTotal.Load() < n {
			runtime.Gosched()
		}
	}
	waitSent(start + after)
	op()
	waitSent(r.sentTotal.Load() + 300)
	stop.Store(true)
	<-done
	r.settle()
}

// settle waits until every packet is processed and every raised event has
// reached the test's books.
func (r *touchRig) settle() {
	r.t.Helper()
	if !r.h.rt.Drain(10 * time.Second) {
		r.t.Fatal("runtime did not drain")
	}
	m := r.h.rt.Metrics()
	if m.DroppedPackets != 0 || m.Processed != r.sentTotal.Load() {
		r.t.Fatalf("sent %d packets, processed %d, shed %d", r.sentTotal.Load(), m.Processed, m.DroppedPackets)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		r.mu.Lock()
		got := r.evTotal
		r.mu.Unlock()
		if got == m.EventsRaised {
			return
		}
		if time.Now().After(deadline) {
			r.t.Fatalf("%d of %d raised events arrived", got, m.EventsRaised)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// requireMarks checks the lock-free count against the tables it summarizes.
func (r *touchRig) requireMarks(when string, want int) {
	r.t.Helper()
	count, marks := mbox.MarkCountForTest(r.h.rt)
	if int(count) != marks || marks != want {
		r.t.Fatalf("%s: mark count %d, tables hold %d marks, want %d", when, count, marks, want)
	}
}

// requireQuiet sends traffic with no transaction in progress and requires
// that none of it raises an event.
func (r *touchRig) requireQuiet(rng *rand.Rand, when string) {
	r.t.Helper()
	before := r.h.rt.Metrics().EventsRaised
	var stop atomic.Bool
	stop.Store(true)
	r.feed(rng, 400, &stop)
	r.settle()
	if got := r.h.rt.Metrics().EventsRaised; got != before {
		r.t.Fatalf("%s: %d events raised with no marks set", when, got-before)
	}
}

func counterValue(t *testing.T, sealed []byte) uint64 {
	t.Helper()
	pt, err := state.NewSealer("openmb-mbtype-counter").Open(sealed)
	if err != nil || len(pt) < 8 {
		t.Fatalf("open exported blob: %v (%d bytes)", err, len(pt))
	}
	return binary.BigEndian.Uint64(pt)
}

// TestTouchFastPathSeesMarks checks the lock-free exit of Touch/TouchShared
// against the guarantee it must not weaken (§4.2.1): an export marks keys
// under the logic's lock while the worker, on another goroutine, updates and
// touches the same keys, and every update is either inside the exported blob
// or raised as a reprocess event — never neither, never both. Per-flow and
// shared transactions are each run under traffic and then ended (a per-flow
// OpEndTransaction, and the wholesale shared reset), and after every step the
// count Touch reads must equal the size of the mark tables; with the marks
// gone, traffic must raise nothing.
func TestTouchFastPathSeesMarks(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const flows = 24
			rng := rand.New(rand.NewSource(seed))
			feedRNG := rand.New(rand.NewSource(seed ^ 0x5eed))
			r := newTouchRig(t, flows)
			r.requireMarks("start", 0)

			// A per-flow get of every flow, under traffic.
			var chunks []*state.Chunk
			r.during(feedRNG, uint64(100+rng.Intn(1500)), func() {
				r.h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 1, Op: sbi.OpGetSupportPerflow, Match: packet.MatchAll})
				chunks, _ = r.h.collectGet(t, 1)
			})
			if len(chunks) != flows {
				t.Fatalf("get exported %d chunks, want %d", len(chunks), flows)
			}
			r.requireMarks("after the per-flow get", flows)
			exported := map[packet.FlowKey]uint64{}
			for _, c := range chunks {
				exported[c.Key] = counterValue(t, c.Blob)
			}
			var events uint64
			for f := 0; f < flows; f++ {
				key := mbtest.FlowN(f).Canonical()
				r.mu.Lock()
				ev := r.evByKey[key]
				r.mu.Unlock()
				events += ev
				if got, want := exported[key]+ev, 1+r.sent[f]; got != want {
					t.Errorf("flow %d: blob holds %d updates and %d raised events, %d updates were made", f, exported[key], ev, want)
				}
			}
			if events == 0 {
				t.Fatal("no update landed after its key was marked: the run did not exercise the marked path")
			}
			if r.evShared != 0 {
				t.Fatalf("%d shared events with no shared mark set", r.evShared)
			}

			r.h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 2, Op: sbi.OpEndTransaction, Match: packet.MatchAll})
			r.h.reply(t)
			r.requireMarks("after the per-flow transaction ended", 0)
			r.requireQuiet(feedRNG, "after the per-flow transaction ended")

			// A shared get under traffic. Every packet updates the shared
			// counter, so the blob and the shared events must add up to every
			// packet sent since the start.
			var sharedBlob []byte
			r.during(feedRNG, uint64(100+rng.Intn(1500)), func() {
				r.h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 3, Op: sbi.OpGetSupportShared})
				sharedBlob = r.h.reply(t).Blob
			})
			r.requireMarks("after the shared get", 1)
			r.mu.Lock()
			evShared := r.evShared
			r.mu.Unlock()
			if got, want := counterValue(t, sharedBlob)+evShared, r.sentTotal.Load(); got != want || evShared == 0 {
				t.Errorf("shared counter: blob %d + %d raised events, %d packets were sent", got-evShared, evShared, want)
			}

			r.h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 4, Op: sbi.OpEndTransaction, Enable: true})
			r.h.reply(t)
			r.requireMarks("after the shared transaction ended", 0)
			r.requireQuiet(feedRNG, "after the shared transaction ended")
		})
	}
}

// BenchmarkTouchNoMarks is the cost a middlebox pays per state update for
// being movable while nothing is being moved: one Touch and one TouchShared
// with no marks set.
func BenchmarkTouchNoMarks(b *testing.B) {
	ctx := mbox.NewBenchContext()
	key, _ := mbtest.FlowN(1).ID()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx.Touch(state.Supporting, key)
		ctx.TouchShared(state.Supporting)
	}
}

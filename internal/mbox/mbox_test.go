package mbox_test

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"math/rand"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"openmb/internal/mbox"
	"openmb/internal/mbox/mbtest"
	"openmb/internal/mbox/re"
	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/state"
)

// harness wires a runtime to a fake controller endpoint over MemTransport.
type harness struct {
	rt   *mbox.Runtime
	ctrl *sbi.Conn
	// hello is the runtime's registration frame, kept for assertions on
	// its announcements (codec, event batch).
	hello *sbi.Message
	// events receives MsgEvent frames; replies receives everything else.
	events  chan *sbi.Message
	replies chan *sbi.Message
}

func newHarness(t *testing.T, logic mbox.Logic) *harness {
	t.Helper()
	tr := sbi.NewMemTransport()
	l, err := tr.Listen("ctrl")
	if err != nil {
		t.Fatal(err)
	}
	rt := mbox.New("mb1", logic, mbox.Options{})
	t.Cleanup(rt.Close)
	// The hello must be consumed concurrently with Connect: the in-memory
	// pipe is synchronous, so Connect's hello send blocks until read.
	accepted := make(chan *sbi.Conn, 1)
	hellos := make(chan *sbi.Message, 1)
	go func() {
		raw, err := l.Accept()
		if err != nil {
			return
		}
		c := sbi.NewConn(raw)
		m, err := c.Receive()
		if err != nil {
			return
		}
		hellos <- m
		accepted <- c
	}()
	if err := rt.Connect(tr, "ctrl"); err != nil {
		t.Fatal(err)
	}
	ctrl := <-accepted
	hello := <-hellos
	if hello.Type != sbi.MsgHello || hello.Name != "mb1" || hello.Kind != logic.Kind() {
		t.Fatalf("hello: %+v", hello)
	}
	// Honor the codec announcement as a real controller would (the
	// runtime defaults to the binary fast path).
	if err := ctrl.Upgrade(hello.Codec); err != nil {
		t.Fatal(err)
	}
	h := &harness{rt: rt, ctrl: ctrl, hello: hello, events: make(chan *sbi.Message, 1024), replies: make(chan *sbi.Message, 1024)}
	go func() {
		for {
			m, err := ctrl.Receive()
			if err != nil {
				close(h.events)
				close(h.replies)
				return
			}
			if m.Type == sbi.MsgEvent {
				h.events <- m
			} else {
				h.replies <- m
			}
		}
	}()
	t.Cleanup(func() { ctrl.Close() })
	return h
}

func (h *harness) send(t *testing.T, m *sbi.Message) {
	t.Helper()
	if err := h.ctrl.Send(m); err != nil {
		t.Fatal(err)
	}
}

func (h *harness) reply(t *testing.T) *sbi.Message {
	t.Helper()
	select {
	case m, ok := <-h.replies:
		if !ok {
			t.Fatal("controller connection closed")
		}
		return m
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for reply")
	}
	return nil
}

func (h *harness) collectGet(t *testing.T, id uint64) ([]*state.Chunk, int) {
	t.Helper()
	var chunks []*state.Chunk
	for {
		m := h.reply(t)
		if m.ID != id {
			t.Fatalf("unexpected id %d (want %d): %+v", m.ID, id, m)
		}
		switch m.Type {
		case sbi.MsgChunk:
			chunks = append(chunks, m.Chunk)
		case sbi.MsgDone:
			return chunks, m.Count
		case sbi.MsgError:
			t.Fatalf("get failed: %s", m.Error)
		}
	}
}

func pkt(srcLast byte, srcPort uint16) *packet.Packet {
	return &packet.Packet{
		SrcIP:   netip.AddrFrom4([4]byte{10, 0, 0, srcLast}),
		DstIP:   netip.AddrFrom4([4]byte{1, 1, 1, 1}),
		Proto:   packet.ProtoTCP,
		SrcPort: srcPort, DstPort: 80,
		Payload: []byte("data"),
	}
}

func TestPacketLoopAndMetrics(t *testing.T) {
	logic := mbtest.NewCounterLogic(8)
	var forwarded int
	var mu sync.Mutex
	rt := mbox.New("mb1", logic, mbox.Options{})
	rt.SetForward(func(p *packet.Packet) {
		mu.Lock()
		forwarded++
		mu.Unlock()
	})
	defer rt.Close()
	for i := 0; i < 10; i++ {
		rt.HandlePacket(pkt(1, 1000))
	}
	if !rt.Drain(time.Second) {
		t.Fatal("drain timeout")
	}
	m := rt.Metrics()
	if m.Processed != 10 || m.Emitted != 10 {
		t.Fatalf("metrics: %+v", m)
	}
	mu.Lock()
	defer mu.Unlock()
	if forwarded != 10 {
		t.Fatalf("forwarded: %d", forwarded)
	}
	if logic.Count(pkt(1, 1000).Flow()) != 10 {
		t.Fatal("logic did not see packets")
	}
	if got := rt.Log("conn"); len(got) != 10 {
		t.Fatalf("log lines: %d", len(got))
	}
}

func TestGetMarksAndRaisesEvents(t *testing.T) {
	logic := mbtest.NewCounterLogic(8)
	h := newHarness(t, logic)
	// Create state for two flows.
	h.rt.HandlePacket(pkt(1, 1000))
	h.rt.HandlePacket(pkt(2, 2000))
	h.rt.Drain(time.Second)

	m, _ := packet.ParseFieldMatch("[nw_src=10.0.0.1]")
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 1, Op: sbi.OpGetSupportPerflow, Match: m})
	chunks, count := h.collectGet(t, 1)
	if count != 1 || len(chunks) != 1 {
		t.Fatalf("chunks: %d count: %d", len(chunks), count)
	}
	if h.rt.MarkedKeys() != 1 {
		t.Fatalf("marked keys: %d", h.rt.MarkedKeys())
	}

	// Packet on the moved flow raises a reprocess event...
	h.rt.HandlePacket(pkt(1, 1000))
	h.rt.Drain(time.Second)
	select {
	case ev := <-h.events:
		if ev.Event.Kind != sbi.EventReprocess || len(ev.Event.Packet) == 0 {
			t.Fatalf("event: %+v", ev.Event)
		}
	case <-time.After(time.Second):
		t.Fatal("no reprocess event")
	}
	// ...but a packet on the unmoved flow does not.
	h.rt.HandlePacket(pkt(2, 2000))
	h.rt.Drain(time.Second)
	select {
	case ev := <-h.events:
		t.Fatalf("unexpected event for unmoved flow: %+v", ev.Event)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestChunksAreSealed(t *testing.T) {
	logic := mbtest.NewCounterLogic(8)
	h := newHarness(t, logic)
	h.rt.HandlePacket(pkt(1, 1000))
	h.rt.Drain(time.Second)
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 1, Op: sbi.OpGetSupportPerflow, Match: packet.MatchAll})
	chunks, _ := h.collectGet(t, 1)
	if len(chunks) != 1 {
		t.Fatal("no chunk")
	}
	// The blob must be opaque: bigger than the 8-byte plaintext and not
	// decodable as the raw counter.
	if len(chunks[0].Blob) <= 8 {
		t.Fatalf("blob looks unsealed: %d bytes", len(chunks[0].Blob))
	}
	// A same-kind sealer opens it.
	sealer := state.NewSealer("openmb-mbtype-counter")
	pt, err := sealer.Open(chunks[0].Blob)
	if err != nil || len(pt) != 8 {
		t.Fatalf("open: %v len=%d", err, len(pt))
	}
}

func TestPutAndDelPerflow(t *testing.T) {
	logic := mbtest.NewCounterLogic(8)
	h := newHarness(t, logic)
	sealer := state.NewSealer("openmb-mbtype-counter")
	key := pkt(5, 5000).Flow().Canonical()
	blob := make([]byte, 8)
	binary.BigEndian.PutUint64(blob, 42)
	h.send(t, &sbi.Message{
		Type: sbi.MsgRequest, ID: 2, Op: sbi.OpPutSupportPerflow,
		Chunk: &state.Chunk{Key: key, Blob: sealer.Seal(blob)},
	})
	if m := h.reply(t); m.Type != sbi.MsgDone || m.ID != 2 {
		t.Fatalf("put ack: %+v", m)
	}
	if logic.Count(key) != 42 {
		t.Fatalf("state not installed: %d", logic.Count(key))
	}
	// Delete clears state and marks.
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 3, Op: sbi.OpDelSupportPerflow, Match: packet.MatchAll})
	if m := h.reply(t); m.Type != sbi.MsgDone || m.Count != 1 {
		t.Fatalf("del ack: %+v", m)
	}
	if logic.Count(key) != 0 {
		t.Fatal("state not deleted")
	}
}

// TestNoTableOverTheWire: the runtime answers the per-flow calls for a
// logic without a per-flow table (the RE encoder) itself: a get ends done
// with Count 0, a put gets an error frame, a delete ends done with Count 0.
func TestNoTableOverTheWire(t *testing.T) {
	enc := re.NewEncoder(1 << 12)
	h := newHarness(t, enc)
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 1, Op: sbi.OpGetSupportPerflow, Match: packet.MatchAll})
	if m := h.reply(t); m.Type != sbi.MsgDone || m.ID != 1 || m.Count != 0 {
		t.Fatalf("get: %+v, want done with Count 0", m)
	}
	sealed := state.NewSealer("openmb-mbtype-" + enc.Kind()).Seal([]byte("state"))
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 2, Op: sbi.OpPutSupportPerflow,
		Chunk: &state.Chunk{Key: pkt(5, 5000).Flow(), Blob: sealed}})
	if m := h.reply(t); m.Type != sbi.MsgError || m.ID != 2 || !strings.Contains(m.Error, "no per-flow") {
		t.Fatalf("put: %+v, want the table's refusal", m)
	}
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 3, Op: sbi.OpDelSupportPerflow, Match: packet.MatchAll})
	if m := h.reply(t); m.Type != sbi.MsgDone || m.ID != 3 || m.Count != 0 {
		t.Fatalf("del: %+v, want done with Count 0", m)
	}
}

func TestDelClearsMarksStopsEvents(t *testing.T) {
	logic := mbtest.NewCounterLogic(8)
	h := newHarness(t, logic)
	h.rt.HandlePacket(pkt(1, 1000))
	h.rt.Drain(time.Second)
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 1, Op: sbi.OpGetSupportPerflow, Match: packet.MatchAll})
	h.collectGet(t, 1)
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 2, Op: sbi.OpDelSupportPerflow, Match: packet.MatchAll})
	h.reply(t)
	if h.rt.MarkedKeys() != 0 {
		t.Fatalf("marks remain: %d", h.rt.MarkedKeys())
	}
	h.rt.HandlePacket(pkt(1, 1000))
	h.rt.Drain(time.Second)
	select {
	case ev := <-h.events:
		t.Fatalf("event after del: %+v", ev.Event)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestReplaySuppressesSideEffects(t *testing.T) {
	logic := mbtest.NewCounterLogic(8)
	h := newHarness(t, logic)
	p := pkt(9, 9000)
	h.send(t, &sbi.Message{
		Type: sbi.MsgRequest, Op: sbi.OpReprocess,
		Event: &sbi.Event{Kind: sbi.EventReprocess, Key: p.Flow(), Packet: p.Marshal(nil)},
	})
	deadline := time.Now().Add(2 * time.Second)
	for h.rt.Metrics().Replayed == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	m := h.rt.Metrics()
	if m.Replayed != 1 {
		t.Fatalf("replayed: %d", m.Replayed)
	}
	if m.Emitted != 0 || m.SuppressedEmits != 1 || m.SuppressedLogs != 1 {
		t.Fatalf("side effects not suppressed: %+v", m)
	}
	if logic.Count(p.Flow()) != 1 {
		t.Fatal("replay did not update state")
	}
	if len(h.rt.Log("conn")) != 0 {
		t.Fatal("replay wrote a log line")
	}
}

func TestSharedGetPutMerge(t *testing.T) {
	logic := mbtest.NewCounterLogic(8)
	h := newHarness(t, logic)
	for i := 0; i < 5; i++ {
		h.rt.HandlePacket(pkt(1, 1000))
	}
	h.rt.Drain(time.Second)
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 1, Op: sbi.OpGetReportShared})
	m := h.reply(t)
	if m.Type != sbi.MsgDone || len(m.Blob) == 0 {
		t.Fatalf("shared get: %+v", m)
	}
	// Put it back: merge doubles the counter.
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 2, Op: sbi.OpPutReportShared, Blob: m.Blob})
	if ack := h.reply(t); ack.Type != sbi.MsgDone {
		t.Fatalf("shared put: %+v", ack)
	}
	if got := logic.SharedReport(); got != 10 {
		t.Fatalf("merged shared counter: %d, want 10", got)
	}
}

func TestSharedMarkRaisesEvents(t *testing.T) {
	logic := mbtest.NewCounterLogic(8)
	h := newHarness(t, logic)
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 1, Op: sbi.OpGetReportShared})
	h.reply(t)
	h.rt.HandlePacket(pkt(3, 3000))
	h.rt.Drain(time.Second)
	select {
	case ev := <-h.events:
		if ev.Event.Kind != sbi.EventReprocess {
			t.Fatalf("event: %+v", ev.Event)
		}
	case <-time.After(time.Second):
		t.Fatal("no event for cloned shared state")
	}
	// endTransaction with Enable ends the shared transaction.
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 2, Op: sbi.OpEndTransaction, Enable: true})
	h.reply(t)
	h.rt.HandlePacket(pkt(3, 3000))
	h.rt.Drain(time.Second)
	select {
	case <-h.events:
		t.Fatal("event after shared transaction end")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestIntrospectionFilters(t *testing.T) {
	logic := mbtest.NewCounterLogic(8)
	h := newHarness(t, logic)
	// Default: no introspection events.
	h.rt.HandlePacket(pkt(1, 1000))
	h.rt.Drain(time.Second)
	select {
	case ev := <-h.events:
		t.Fatalf("event without filter: %+v", ev.Event)
	case <-time.After(50 * time.Millisecond):
	}
	// Enable for a subnet.
	m, _ := packet.ParseFieldMatch("[nw_src=10.0.0.0/24]")
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 1, Op: sbi.OpSetEventFilter, Path: "counter.", Match: m, Enable: true})
	h.reply(t)
	h.rt.HandlePacket(pkt(1, 1000))
	h.rt.Drain(time.Second)
	select {
	case ev := <-h.events:
		if ev.Event.Kind != sbi.EventIntrospection || ev.Event.Code != "counter.flow.seen" {
			t.Fatalf("event: %+v", ev.Event)
		}
	case <-time.After(time.Second):
		t.Fatal("no introspection event after enable")
	}
	// Disable again (most recent filter wins).
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 2, Op: sbi.OpSetEventFilter, Path: "counter.", Match: m, Enable: false})
	h.reply(t)
	h.rt.HandlePacket(pkt(1, 1000))
	h.rt.Drain(time.Second)
	select {
	case ev := <-h.events:
		t.Fatalf("event after disable: %+v", ev.Event)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestConfigOpsOverWire(t *testing.T) {
	logic := mbtest.NewCounterLogic(8)
	h := newHarness(t, logic)
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 1, Op: sbi.OpSetConfig, Path: "rules/0", Values: []string{"drop all"}})
	if m := h.reply(t); m.Type != sbi.MsgDone {
		t.Fatalf("set: %+v", m)
	}
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 2, Op: sbi.OpGetConfig, Path: "*"})
	m := h.reply(t)
	if m.Type != sbi.MsgDone || len(m.Entries) != 1 || m.Entries[0].Values[0] != "drop all" {
		t.Fatalf("get: %+v", m)
	}
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 3, Op: sbi.OpDelConfig, Path: "rules/0"})
	if m := h.reply(t); m.Type != sbi.MsgDone {
		t.Fatalf("del: %+v", m)
	}
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 4, Op: sbi.OpGetConfig, Path: "rules/0"})
	if m := h.reply(t); m.Type != sbi.MsgError {
		t.Fatalf("get deleted: %+v", m)
	}
}

func TestStatsOverWire(t *testing.T) {
	logic := mbtest.NewCounterLogic(8)
	h := newHarness(t, logic)
	h.rt.HandlePacket(pkt(1, 1000))
	h.rt.HandlePacket(pkt(2, 2000))
	h.rt.Drain(time.Second)
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 1, Op: sbi.OpStats, Match: packet.MatchAll})
	m := h.reply(t)
	if m.Stats == nil || m.Stats.SupportPerflowChunks != 2 {
		t.Fatalf("stats: %+v", m.Stats)
	}
}

func TestGranularityErrorPropagates(t *testing.T) {
	logic := mbtest.NewCounterLogic(8)
	h := newHarness(t, logic)
	m, _ := packet.ParseFieldMatch("[tp_dst=80]")
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 1, Op: sbi.OpGetSupportPerflow, Match: m})
	if r := h.reply(t); r.Type != sbi.MsgError {
		t.Fatalf("want error for finer-than-keying get, got %+v", r)
	}
}

func TestCompressedTransfer(t *testing.T) {
	logic := mbtest.NewCounterLogic(8)
	h := newHarness(t, logic)
	h.rt.HandlePacket(pkt(1, 1000))
	h.rt.Drain(time.Second)
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 1, Op: sbi.OpGetSupportPerflow, Match: packet.MatchAll, Compressed: true})
	chunks, _ := h.collectGet(t, 1)
	if len(chunks) != 1 {
		t.Fatal("no chunk")
	}
	// Round-trip through a compressed put into a second logic.
	logic2 := mbtest.NewCounterLogic(8)
	rt2 := mbox.New("mb2", logic2, mbox.Options{})
	defer rt2.Close()
	// Feed the put directly through the same southbound path by driving
	// serveRequest via a fresh harness.
	h2 := newHarness(t, logic2)
	h2.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 9, Op: sbi.OpPutSupportPerflow, Chunk: chunks[0], Compressed: true})
	if m := h2.reply(t); m.Type != sbi.MsgDone {
		t.Fatalf("compressed put: %+v", m)
	}
	if logic2.Count(chunks[0].Key) != 1 {
		t.Fatal("compressed chunk not installed")
	}
}

// TestDeflateInflatePooled: the pooled compressor state behaves as a fresh
// one per call did — the same bytes on the wire, a round trip at every size,
// a reader that survives corrupt input — and is safe to use from several
// southbound goroutines at once.
func TestDeflateInflatePooled(t *testing.T) {
	fresh := func(b []byte) []byte {
		var buf bytes.Buffer
		w, err := flate.NewWriter(&buf, flate.DefaultCompression)
		if err != nil {
			t.Fatal(err)
		}
		w.Write(b)
		w.Close()
		return buf.Bytes()
	}
	rng := rand.New(rand.NewSource(14))
	var blobs [][]byte
	for _, n := range []int{0, 1, 8, 202, 4096, 70000} {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(4)) // compressible, not constant
		}
		blobs = append(blobs, b)
	}
	for round := 0; round < 3; round++ {
		for _, b := range blobs {
			z := mbox.DeflateForTest(b)
			if !bytes.Equal(z, fresh(b)) {
				t.Fatalf("%d bytes: pooled writer produced different bytes than a fresh one", len(b))
			}
			got, err := mbox.InflateForTest(z)
			if err != nil || !bytes.Equal(got, b) {
				t.Fatalf("%d bytes: round trip: %v", len(b), err)
			}
			if len(b) >= 202 && len(z) >= len(b) {
				t.Fatalf("%d compressible bytes deflated to %d", len(b), len(z))
			}
		}
		if _, err := mbox.InflateForTest([]byte{0xff, 0xff, 0xff}); err == nil {
			t.Fatal("corrupt input inflated without error")
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b := bytes.Repeat([]byte{byte(g), byte(g + 1), 7}, 50+g)
			for i := 0; i < 500; i++ {
				got, err := mbox.InflateForTest(mbox.DeflateForTest(b))
				if err != nil || !bytes.Equal(got, b) {
					t.Errorf("goroutine %d: round trip failed: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestLatencyBuckets(t *testing.T) {
	logic := mbtest.NewCounterLogic(8)
	rt := mbox.New("mb1", logic, mbox.Options{})
	defer rt.Close()
	rt.HandlePacket(pkt(1, 1000))
	rt.Drain(time.Second)
	mbox.SetActiveOpsForTest(rt, 1)
	rt.HandlePacket(pkt(1, 1000))
	rt.Drain(time.Second)
	mbox.SetActiveOpsForTest(rt, -1)
	m := rt.Metrics()
	if m.LatencyNormal == 0 || m.LatencyDuringOp == 0 {
		t.Fatalf("latency buckets not populated: %+v", m)
	}
}

func TestQueueOverflowDropsNotBlocks(t *testing.T) {
	logic := mbtest.NewCounterLogic(8)
	rt := mbox.New("mb1", logic, mbox.Options{QueueSize: 4})
	defer rt.Close()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10000; i++ {
			rt.HandlePacket(pkt(byte(i), uint16(i)))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("HandlePacket blocked on full queue")
	}
	rt.Drain(2 * time.Second)
}

func TestUnknownOpErrors(t *testing.T) {
	logic := mbtest.NewCounterLogic(8)
	h := newHarness(t, logic)
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 1, Op: "bogus"})
	if m := h.reply(t); m.Type != sbi.MsgError {
		t.Fatalf("want error, got %+v", m)
	}
}

func TestBatchedGetFraming(t *testing.T) {
	logic := mbtest.NewCounterLogic(8)
	h := newHarness(t, logic)
	const flows = 10
	for i := 0; i < flows; i++ {
		h.rt.HandlePacket(pkt(byte(i+1), uint16(1000+i)))
	}
	h.rt.Drain(time.Second)

	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 1, Op: sbi.OpGetSupportPerflow, Match: packet.MatchAll, Batch: 4})
	var frames [][]state.Chunk
	total := 0
	for {
		m := h.reply(t)
		if m.Type == sbi.MsgError {
			t.Fatalf("get failed: %s", m.Error)
		}
		if m.Type == sbi.MsgDone {
			if m.Count != flows {
				t.Fatalf("done count %d, want %d", m.Count, flows)
			}
			break
		}
		if m.Chunk != nil {
			t.Fatalf("batched get produced a single-chunk frame: %+v", m)
		}
		if len(m.Chunks) == 0 || len(m.Chunks) > 4 {
			t.Fatalf("frame carries %d chunks, want 1..4", len(m.Chunks))
		}
		frames = append(frames, m.Chunks)
		total += len(m.Chunks)
	}
	if total != flows || len(frames) != 3 { // 4+4+2
		t.Fatalf("frames=%d total=%d, want 3 frames / %d chunks", len(frames), total, flows)
	}
}

func TestBatchedPutInstallsAll(t *testing.T) {
	logic := mbtest.NewCounterLogic(8)
	h := newHarness(t, logic)
	sealer := state.NewSealer("openmb-mbtype-counter")
	blob := func(v uint64) []byte {
		b := make([]byte, 8)
		binary.BigEndian.PutUint64(b, v)
		return sealer.Seal(b)
	}
	var chunks []state.Chunk
	for i := 0; i < 5; i++ {
		chunks = append(chunks, state.Chunk{Key: pkt(byte(40+i), uint16(4000+i)).Flow().Canonical(), Blob: blob(uint64(i + 1))})
	}
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 9, Op: sbi.OpPutSupportPerflow, Chunks: chunks})
	m := h.reply(t)
	if m.Type != sbi.MsgDone || m.Count != 5 {
		t.Fatalf("batched put reply: %+v", m)
	}
	if logic.Flows() != 5 {
		t.Fatalf("flows installed: %d", logic.Flows())
	}
	if got := logic.SumCounts(); got != 1+2+3+4+5 {
		t.Fatalf("sum: %d", got)
	}
	// An empty put (no chunk in either representation) still errors.
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 10, Op: sbi.OpPutSupportPerflow})
	if m := h.reply(t); m.Type != sbi.MsgError {
		t.Fatalf("empty put accepted: %+v", m)
	}
}

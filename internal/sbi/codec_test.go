package sbi

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"reflect"
	"runtime"
	"testing"

	"openmb/internal/packet"
	"openmb/internal/racedetect"
	"openmb/internal/state"
)

// codecPair returns fresh codecs of both kinds bound to the same buffer.
func roundTrip(t *testing.T, codec Codec, m *Message) *Message {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	br := bufio.NewReader(&buf)
	var c wireCodec
	if codec == CodecBinary {
		c = newBinaryCodec(br, bw)
	} else {
		c = newJSONCodec(br, bw)
	}
	if err := c.encode(m); err != nil {
		t.Fatalf("%s encode: %v", codec, err)
	}
	// Codecs no longer flush per frame (the Conn owns flushing); the test
	// harness plays that role here.
	if err := bw.Flush(); err != nil {
		t.Fatalf("%s flush: %v", codec, err)
	}
	got, err := c.decode()
	if err != nil {
		t.Fatalf("%s decode: %v", codec, err)
	}
	return got
}

// sameMessage reports whether a and b are deeply equal in every field but
// the pooled frame a binary-decoded message borrows, which is storage, not
// content.
func sameMessage(a, b *Message) bool {
	if a == nil || b == nil {
		return a == b
	}
	x, y := *a, *b
	x.frame, y.frame = nil, nil
	return reflect.DeepEqual(x, y)
}

func testMessages() []*Message {
	k, _ := packet.ParseFlowKey("10.0.0.1:1234>192.168.1.2:80/tcp")
	k2, _ := packet.ParseFlowKey("10.9.8.7:5353>1.2.3.4:53/udp")
	match, _ := packet.ParseFieldMatch("[nw_src=10.0.0.0/8,tp_dst=80]")
	return []*Message{
		{Type: MsgHello, Name: "prads1", Kind: "monitor"},
		{Type: MsgHello, Name: "bro1", Kind: "ips", Codec: CodecBinary},
		{Type: MsgRequest, ID: 7, Op: OpGetSupportPerflow, Match: match, Batch: 64},
		{Type: MsgRequest, ID: 8, Op: OpGetReportPerflow}, // MatchAll, no batch
		{Type: MsgRequest, ID: 9, Op: OpSetConfig, Path: "limits/conns", Values: []string{"100", "soft"}},
		{Type: MsgRequest, ID: 10, Op: OpSetEventFilter, Path: "nat.", Enable: true, TTLNanos: 5e9},
		{Type: MsgRequest, ID: 11, Op: OpPutSupportShared, Blob: []byte{0, 1, 2, 0xFF}, Compressed: true},
		{Type: MsgChunk, ID: 12, Chunk: &state.Chunk{Key: k, Blob: bytes.Repeat([]byte{0xAB}, 189)}},
		{Type: MsgChunk, ID: 13, Chunks: []state.Chunk{
			{Key: k, Blob: []byte("alpha")},
			{Key: k2, Blob: bytes.Repeat([]byte{7}, 202)},
		}},
		{Type: MsgChunk, ID: 14, Chunk: &state.Chunk{Key: k}}, // empty blob
		{Type: MsgDone, ID: 15, Count: 42},
		{Type: MsgDone, ID: 16}, // everything absent
		{Type: MsgDone, ID: 17, Entries: []state.Entry{
			{Path: "a/b", Values: []string{"x"}},
			{Path: "c", Values: []string{"1", "2", "3"}},
		}},
		{Type: MsgDone, ID: 18, Stats: &StatsReply{
			SupportPerflowChunks: 1, SupportPerflowBytes: 2,
			ReportPerflowChunks: 3, ReportPerflowBytes: 4,
			SupportSharedBytes: 5, ReportSharedBytes: 6,
		}},
		{Type: MsgEvent, Event: &Event{
			Kind: EventReprocess, Key: k, Seq: 99, Class: state.Supporting,
			Packet: []byte{1, 2, 3, 4},
		}},
		{Type: MsgEvent, Event: &Event{
			Kind: EventReprocess, Key: k2, Seq: 100, Class: state.Reporting, Shared: true,
			Packet: []byte{9},
		}},
		{Type: MsgEvent, Event: &Event{
			Kind: EventIntrospection, Key: k, Code: "monitor.asset.detected", Seq: 3,
			Values: map[string]string{"service": "http", "os": "linux/unix"},
		}},
		{Type: MsgEvent, Event: &Event{Kind: EventIntrospection, Seq: 1}}, // zero key
		{Type: MsgEvent, Events: []*Event{ // coalesced event batch
			{Kind: EventReprocess, Key: k, Seq: 41, Class: state.Supporting, Packet: []byte{1, 2}},
			{Kind: EventIntrospection, Key: k2, Code: "nat.mapping.created", Seq: 42,
				Values: map[string]string{"port": "1024"}},
			{Kind: EventReprocess, Key: k2, Seq: 43, Class: state.Reporting, Shared: true, Packet: []byte{3}},
		}},
		{Type: MsgRequest, ID: 19, Op: OpReprocess, Events: []*Event{ // batched reprocess delivery
			{Kind: EventReprocess, Key: k, Seq: 50, Class: state.Supporting, Packet: []byte{7, 8, 9}},
			{Kind: EventReprocess, Key: k, Seq: 51, Class: state.Supporting, Packet: []byte{10}},
		}},
		{Type: MsgError, ID: 20, Error: "mbox: unknown op \"frobnicate\""},
		{Type: MsgRequest, ID: 21, Op: OpEndTransaction, Match: match},
		{Type: MsgRequest, ID: 22, Op: OpPeerLeave},
		{Type: MsgHello, Name: "node-b", Kind: PeerKind, Codec: CodecBinary, Addr: "127.0.0.1:9754"}, // peer hello
		{Type: MsgRequest, ID: 23, Op: OpDirUpdate, Dir: []DirEntry{
			{Name: "prads1", Node: "node-a", Version: 3},
			{Name: "bro1", Node: "node-b", Version: 1},
		}},
		{Type: MsgRequest, ID: 24, Op: OpDirSync},
		{Type: MsgDone, ID: 24, Dir: []DirEntry{{Name: "prads1", Node: "node-a", Version: 3}},
			Values: []string{"node-a=127.0.0.1:9753", "node-b=127.0.0.1:9754"}}, // dirSync reply
		{Type: MsgRequest, ID: 25, Op: OpRedirect, Addr: "127.0.0.1:9755"},
		{Type: MsgRequest, ID: 26, Op: OpReleaseMB, Name: "prads1", Addr: "127.0.0.1:9755"},
		{Type: MsgRequest, ID: 27, Op: OpTraceFlow, Match: match, Enable: true, Count: 128},
		{Type: MsgRequest, ID: 28, Op: OpGetSupportPerflow, Match: match, Batch: 32, Window: 64}, // windowed get
		{Type: MsgRequest, ID: 28, Op: OpCredit, Count: 1},                                       // credit for it
		{Type: MsgRequest, ID: 28, Op: OpCredit},                                                 // cancel it
	}
}

// TestCodecEquivalence asserts the binary and JSON codecs decode every
// message shape — including empty and absent optional fields — to identical
// Message values.
func TestCodecEquivalence(t *testing.T) {
	for i, m := range testMessages() {
		viaJSON := roundTrip(t, CodecJSON, m)
		viaBinary := roundTrip(t, CodecBinary, m)
		if !sameMessage(viaJSON, viaBinary) {
			t.Errorf("message %d (%s): codecs disagree\n json:   %+v\n binary: %+v", i, m.Type, viaJSON, viaBinary)
		}
		if !reflect.DeepEqual(viaBinary.Event, m.Event) {
			t.Errorf("message %d (%s): event mismatch\n want %+v\n got  %+v", i, m.Type, m.Event, viaBinary.Event)
		}
	}
}

// TestCodecEquivalenceRandom is the property-test version: randomized chunk
// batches, events, and stats must decode identically under both codecs.
func TestCodecEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randKey := func() packet.FlowKey {
		return packet.FlowKey{
			SrcIP:   netip.AddrFrom4([4]byte{10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1 + rng.Intn(254))}),
			DstIP:   netip.AddrFrom4([4]byte{192, 168, byte(rng.Intn(256)), byte(1 + rng.Intn(254))}),
			Proto:   []uint8{packet.ProtoTCP, packet.ProtoUDP, packet.ProtoICMP}[rng.Intn(3)],
			SrcPort: uint16(rng.Intn(65536)),
			DstPort: uint16(rng.Intn(65536)),
		}
	}
	randBlob := func() []byte {
		if rng.Intn(4) == 0 {
			return nil
		}
		b := make([]byte, 1+rng.Intn(400))
		rng.Read(b)
		return b
	}
	for i := 0; i < 300; i++ {
		var m *Message
		switch rng.Intn(4) {
		case 0:
			m = &Message{Type: MsgChunk, ID: uint64(rng.Intn(1 << 30)), Compressed: rng.Intn(2) == 0}
			if n := rng.Intn(5); n == 0 {
				m.Chunk = &state.Chunk{Key: randKey(), Blob: randBlob()}
			} else {
				for j := 0; j < n; j++ {
					m.Chunks = append(m.Chunks, state.Chunk{Key: randKey(), Blob: randBlob()})
				}
			}
		case 1:
			randEvent := func() *Event {
				return &Event{
					Kind: EventReprocess, Key: randKey(), Seq: rng.Uint64(),
					Class: state.Class(1 + rng.Intn(3)), Shared: rng.Intn(2) == 0,
					Packet: randBlob(),
				}
			}
			m = &Message{Type: MsgEvent}
			if n := rng.Intn(5); n == 0 {
				m.Event = randEvent()
			} else {
				for j := 0; j < n; j++ {
					m.Events = append(m.Events, randEvent())
				}
			}
		case 2:
			m = &Message{
				Type: MsgRequest, ID: uint64(rng.Intn(1 << 20)),
				Op: OpGetSupportPerflow, Batch: rng.Intn(128), Window: rng.Intn(128),
			}
			if rng.Intn(2) == 0 {
				m.Match, _ = packet.ParseFieldMatch(fmt.Sprintf("[nw_src=10.0.0.0/%d]", 8+rng.Intn(25)))
			}
		default:
			m = &Message{Type: MsgDone, ID: uint64(rng.Intn(1 << 20)), Count: rng.Intn(1 << 16)}
		}
		viaJSON := roundTrip(t, CodecJSON, m)
		viaBinary := roundTrip(t, CodecBinary, m)
		if !sameMessage(viaJSON, viaBinary) {
			t.Fatalf("iteration %d: codecs disagree\n json:   %+v\n binary: %+v", i, viaJSON, viaBinary)
		}
	}
}

// TestReleasedFrameIsReused pins the received-frame pool: a chunk frame
// decoded after a Release reuses the released body, a message nobody
// released keeps its bytes through later decodes and releases, only frames
// that carry chunks borrow, whatever their size, and Release on a
// JSON-decoded message changes nothing.
func TestReleasedFrameIsReused(t *testing.T) {
	k, _ := packet.ParseFlowKey("10.0.0.1:1234>192.168.1.2:80/tcp")
	frame := func(fill byte) *Message { // 32 chunks of 189 B
		m := &Message{Type: MsgChunk, ID: 1}
		for i := 0; i < 32; i++ {
			m.Chunks = append(m.Chunks, state.Chunk{Key: k, Blob: bytes.Repeat([]byte{fill}, 189)})
		}
		return m
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	c := newBinaryCodec(bufio.NewReader(&buf), bw)
	next := func(out *Message) *Message {
		t.Helper()
		if err := c.encode(out); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		m, err := c.decode()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	// sync.Pool may drop what is put back (the race detector makes it do
	// so at random), so the reuse gets several tries.
	reused := false
	for i := 0; i < 64 && !reused; i++ {
		a := next(frame(1))
		blob := a.Chunks[0].Blob
		a.Release()
		if a.Chunk != nil || a.Chunks != nil || a.Blob != nil {
			t.Fatalf("released message still carries its payload: %+v", a)
		}
		if racedetect.Enabled && blob[0] != framePoison {
			t.Fatalf("released body reads %#x under the race detector, want the poison %#x", blob[0], framePoison)
		}
		b := next(frame(2))
		reused = &b.Chunks[0].Blob[0] == &blob[0]
		b.Release()
	}
	if !reused {
		t.Fatal("no frame decoded after a Release reused the released body")
	}

	kept := next(frame(3))
	want := frame(3)
	for i := 0; i < 16; i++ {
		next(frame(byte(4 + i))).Release()
	}
	if len(kept.Chunks) != len(want.Chunks) {
		t.Fatalf("kept message has %d chunks, want %d", len(kept.Chunks), len(want.Chunks))
	}
	for i := range kept.Chunks {
		if !bytes.Equal(kept.Chunks[i].Blob, want.Chunks[i].Blob) {
			t.Fatalf("chunk %d of an unreleased message was overwritten by a later frame", i)
		}
	}

	// An event frame the event router may hold borrows nothing, however
	// large; a one-chunk put, which the middlebox releases, borrows.
	ev := next(&Message{Type: MsgEvent, Event: &Event{Kind: EventReprocess, Key: k, Packet: bytes.Repeat([]byte{6}, 4096)}})
	if ev.frame != nil {
		t.Fatal("an event frame borrowed from the frame pool")
	}
	put := next(&Message{Type: MsgRequest, Op: OpPutSupportPerflow, ID: 2, Chunk: &state.Chunk{Key: k, Blob: []byte{7}}})
	if put.frame == nil {
		t.Fatal("a one-chunk put did not borrow from the frame pool")
	}
	put.Release()

	viaJSON := roundTrip(t, CodecJSON, frame(5))
	viaJSON.Release()
	if !sameMessage(viaJSON, roundTrip(t, CodecJSON, frame(5))) {
		t.Fatal("Release changed a JSON-decoded message")
	}
}

// encodeFrame returns m's binary frame, length prefix included.
func encodeFrame(tb testing.TB, m *Message) []byte {
	tb.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := newBinaryCodec(nil, bw).encode(m); err != nil {
		tb.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// frameDecoder decodes the same frame again and again, with no allocation
// of its own after the first.
type frameDecoder struct {
	frame []byte
	r     bytes.Reader
	br    *bufio.Reader
	c     *binaryCodec
}

func newFrameDecoder(frame []byte) *frameDecoder {
	d := &frameDecoder{frame: frame, br: bufio.NewReader(nil)}
	d.c = newBinaryCodec(d.br, nil)
	return d
}

func (d *frameDecoder) next(tb testing.TB) *Message {
	d.r.Reset(d.frame)
	d.br.Reset(&d.r)
	m, err := d.c.decode()
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestReleasedMessageIsPoisoned pins what Release takes back: the whole
// Message, not only its body. A released message holds nothing, Keys
// included, and under the race detector its fields and its old body read as
// poison, so a consumer that reads a frame after releasing it fails the race
// job's moves instead of reading whatever frame was decoded into the same
// storage next.
func TestReleasedMessageIsPoisoned(t *testing.T) {
	d := newFrameDecoder(encodeFrame(t, benchChunkMessage(32)))
	m := d.next(t)
	id, _ := m.Chunks[0].Key.ID()
	m.Keys = []packet.FlowID{id}
	body := m.frame.body
	m.Release()
	if m.frame != nil || m.Chunk != nil || m.Chunks != nil || m.Blob != nil || m.Keys != nil {
		t.Fatalf("a released message still holds what it carried: %+v", m)
	}
	if !racedetect.Enabled {
		return
	}
	if m.Type != releasedMessage.Type || m.ID != releasedMessage.ID || m.Op != releasedMessage.Op || m.Count != releasedMessage.Count {
		t.Fatalf("released message reads type %q id %d op %q count %d under the race detector, want the poison", m.Type, m.ID, m.Op, m.Count)
	}
	for i, b := range body {
		if b != framePoison {
			t.Fatalf("byte %d of a released body reads %#x under the race detector, want the poison %#x", i, b, framePoison)
		}
	}
}

// TestDecodeRecyclesWholeFrames: the frames of a move (a 32-chunk frame, the
// paper's one-chunk frame, a put's ACK, a credit) are decoded into recycled
// storage, the Message itself included, so once released they cost no
// allocation at all, the request's op name included.
func TestDecodeRecyclesWholeFrames(t *testing.T) {
	for name, m := range map[string]*Message{
		"chunks":    benchChunkMessage(32),
		"one chunk": benchChunkMessage(1),
		"ack":       {Type: MsgDone, ID: 7, Count: 32},
		"credit":    {Type: MsgRequest, Op: OpCredit, ID: 7, Count: 1},
	} {
		d := newFrameDecoder(encodeFrame(t, m))
		// sync.Pool may drop what is put back (the race detector makes it
		// do so at random), so the reuse gets several tries.
		reused := false
		for i := 0; i < 64 && !reused; i++ {
			a := d.next(t)
			a.Release()
			b := d.next(t)
			reused = a == b
			b.Release()
		}
		if !reused {
			t.Fatalf("%s: no frame decoded after a Release reused the released Message", name)
		}
		if got := d.next(t); got.Type != m.Type || got.Op != m.Op || got.Count != m.Count || got.ChunkCount() != m.ChunkCount() {
			t.Fatalf("%s: decoded %+v from a recycled frame", name, got)
		}
		if racedetect.Enabled {
			continue
		}
		if n := testing.AllocsPerRun(100, func() { d.next(t).Release() }); n != 0 {
			t.Fatalf("%s: decoding and releasing a frame costs %.0f allocations, want 0", name, n)
		}
	}
	// The frames nobody releases are small, so a small frame never takes a
	// released chunk frame's holder: it would carry the body off with it.
	chunks := newFrameDecoder(encodeFrame(t, benchChunkMessage(32)))
	get := newFrameDecoder(encodeFrame(t, &Message{Type: MsgRequest, Op: OpGetSupportPerflow, ID: 9, Match: packet.MatchAll}))
	for i := 0; i < 64; i++ {
		a := chunks.next(t)
		a.Release()
		if b := get.next(t); b == a {
			t.Fatal("a small request was decoded into a released chunk frame's holder")
		}
	}
}

// TestDecodeLoneChunkBesideBatch: a frame carrying both a lone chunk and a
// batch decodes both intact into one pooled chunk slice, whether the frame's
// slice must grow (a fresh frame) or is large enough (a recycled one).
func TestDecodeLoneChunkBesideBatch(t *testing.T) {
	m := benchChunkMessage(3)
	m.Chunk = benchChunkMessage(1).Chunk
	both := newFrameDecoder(encodeFrame(t, m))
	for i := 0; i < 8; i++ {
		got := both.next(t)
		if !reflect.DeepEqual(got.Chunk, m.Chunk) || !reflect.DeepEqual(got.Chunks, m.Chunks) {
			t.Fatalf("decoded chunk %+v and batch %+v, want %+v and %+v", got.Chunk, got.Chunks, m.Chunk, m.Chunks)
		}
		got.Release()
	}
}

// TestUpgradeNegotiation exercises the full hello handshake: JSON hello
// announcing the binary codec, then binary frames in both directions.
func TestUpgradeNegotiation(t *testing.T) {
	a, b := net.Pipe()
	mb, ctrl := NewConn(a), NewConn(b)
	defer mb.Close()
	defer ctrl.Close()

	k, _ := packet.ParseFlowKey("10.0.0.1:1234>192.168.1.2:80/tcp")
	done := make(chan error, 1)
	go func() {
		// Middlebox side: JSON hello announcing binary, then upgrade.
		if err := mb.Send(&Message{Type: MsgHello, Name: "prads1", Kind: "monitor", Codec: CodecBinary}); err != nil {
			done <- err
			return
		}
		if err := mb.Upgrade(CodecBinary); err != nil {
			done <- err
			return
		}
		// First post-hello frame travels binary.
		done <- mb.Send(&Message{Type: MsgChunk, ID: 1, Chunk: &state.Chunk{Key: k, Blob: []byte("payload")}})
	}()

	hello, err := ctrl.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if hello.Type != MsgHello || hello.Codec != CodecBinary {
		t.Fatalf("hello: %+v", hello)
	}
	if err := ctrl.Upgrade(hello.Codec); err != nil {
		t.Fatal(err)
	}
	if ctrl.Codec() != CodecBinary {
		t.Fatalf("codec after upgrade: %s", ctrl.Codec())
	}
	chunk, err := ctrl.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if chunk.Chunk == nil || chunk.Chunk.Key != k || string(chunk.Chunk.Blob) != "payload" {
		t.Fatalf("chunk over binary: %+v", chunk)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Reverse direction: the controller's request also travels binary.
	go func() {
		_ = ctrl.Send(&Message{Type: MsgRequest, ID: 2, Op: OpStats})
	}()
	req, err := mb.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if req.Op != OpStats || req.ID != 2 {
		t.Fatalf("request over binary: %+v", req)
	}
}

// TestBinaryRejectsMalformed mirrors the JSON robustness tests for the
// binary codec: oversized length prefixes, truncated bodies, and unknown
// field bits all surface as errors, never hangs or panics.
func TestBinaryRejectsMalformed(t *testing.T) {
	decode := func(frame []byte) error {
		c := newBinaryCodec(bufio.NewReader(bytes.NewReader(frame)), nil)
		_, err := c.decode()
		return err
	}
	if err := decode([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err == nil {
		t.Error("oversized length prefix accepted")
	}
	if err := decode([]byte{0, 0, 0, 50, 4}); err == nil {
		t.Error("truncated body accepted")
	}
	// Valid length, unknown message type 99.
	if err := decode([]byte{0, 0, 0, 9, 99, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("unknown message type accepted")
	}
	// Unknown (future) field bit 31 set.
	if err := decode([]byte{0, 0, 0, 9, 4, 0x80, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("unknown field bits accepted")
	}
	// The retired field's bit 19 is no longer understood either.
	if err := decode([]byte{0, 0, 0, 9, 4, 0, 0x08, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("retired field bit accepted")
	}
	// Chunk count claiming more chunks than the frame could hold.
	body := []byte{3}                                // MsgChunk
	body = append(body, 0, 0, 0x20, 0)               // flags: fChunks
	body = append(body, 1)                           // id
	body = append(body, 0xFF, 0xFF, 0xFF, 0xFF, 0xF) // absurd count
	frame := append([]byte{0, 0, 0, byte(len(body))}, body...)
	if err := decode(frame); err == nil {
		t.Error("absurd chunk count accepted")
	}
	// Unknown (future) event-presence bit 7 set.
	ebody := []byte{5}                // MsgEvent
	ebody = append(ebody, 0, 2, 0, 0) // flags: fEvent
	ebody = append(ebody, 1)          // id
	ebody = append(ebody, 0x80)       // event flags: unknown bit
	ebody = append(ebody, 9)          // kind length (truncated on purpose)
	eframe := append([]byte{0, 0, 0, byte(len(ebody))}, ebody...)
	if err := decode(eframe); err == nil {
		t.Error("unknown event field bits accepted")
	}
}

// TestBinaryRejectsNonIPv4Keys: the 13-byte key form cannot represent IPv6
// addresses; encoding must fail loudly rather than zero them (which would
// collapse distinct flows onto one key at the decoder).
func TestBinaryRejectsNonIPv4Keys(t *testing.T) {
	k6 := packet.FlowKey{
		SrcIP: netip.MustParseAddr("2001:db8::1"), DstIP: netip.MustParseAddr("2001:db8::2"),
		Proto: packet.ProtoTCP, SrcPort: 1234, DstPort: 80,
	}
	var buf bytes.Buffer
	c := newBinaryCodec(bufio.NewReader(&buf), bufio.NewWriter(&buf))
	for _, m := range []*Message{
		{Type: MsgChunk, ID: 1, Chunk: &state.Chunk{Key: k6, Blob: []byte("x")}},
		{Type: MsgChunk, ID: 2, Chunks: []state.Chunk{{Key: k6}}},
		{Type: MsgEvent, Event: &Event{Kind: EventReprocess, Key: k6, Seq: 1}},
	} {
		if err := c.encode(m); err == nil {
			t.Errorf("%s with IPv6 key encoded without error", m.Type)
		}
	}
	// The JSON codec carries the same keys fine.
	got := roundTrip(t, CodecJSON, &Message{Type: MsgEvent, Event: &Event{Kind: EventReprocess, Key: k6, Seq: 1}})
	if got.Event.Key != k6 {
		t.Fatalf("json round trip of IPv6 key: %v", got.Event.Key)
	}
}

func TestParseCodec(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Codec
		ok   bool
	}{
		{"", CodecJSON, true},
		{"json", CodecJSON, true},
		{"binary", CodecBinary, true},
		{"protobuf", "", false},
	} {
		got, err := ParseCodec(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseCodec(%q) = %q, %v", tc.in, got, err)
		}
	}
}

func benchCodec(b *testing.B, codec Codec, m *Message) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	br := bufio.NewReader(&buf)
	var c wireCodec
	if codec == CodecBinary {
		c = newBinaryCodec(br, bw)
	} else {
		c = newJSONCodec(br, bw)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		br.Reset(&buf)
		if err := c.encode(m); err != nil {
			b.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			b.Fatal(err)
		}
		got, err := c.decode()
		if err != nil {
			b.Fatal(err)
		}
		got.Release()
	}
	b.SetBytes(int64(buf.Len()))
}

func benchChunkMessage(batch int) *Message {
	k, _ := packet.ParseFlowKey("10.0.0.1:1234>192.168.1.2:80/tcp")
	if batch <= 1 {
		return &Message{Type: MsgChunk, ID: 1, Chunk: &state.Chunk{Key: k, Blob: bytes.Repeat([]byte{1}, 189)}}
	}
	m := &Message{Type: MsgChunk, ID: 1}
	for i := 0; i < batch; i++ {
		m.Chunks = append(m.Chunks, state.Chunk{Key: k, Blob: bytes.Repeat([]byte{byte(i)}, 189)})
	}
	return m
}

// BenchmarkCodecJSON and BenchmarkCodecBinary measure one encode+decode of a
// representative 189-byte chunk frame (the paper's PRADS chunk size) under
// each codec, alone and batched 32 to a frame. Each decoded message is
// released, as the move's consumers release theirs, so the binary batch
// reuses one pooled frame.
func BenchmarkCodecJSON(b *testing.B)   { benchCodec(b, CodecJSON, benchChunkMessage(1)) }
func BenchmarkCodecBinary(b *testing.B) { benchCodec(b, CodecBinary, benchChunkMessage(1)) }
func BenchmarkCodecJSONBatch32(b *testing.B) {
	benchCodec(b, CodecJSON, benchChunkMessage(32))
}

// BenchmarkDecodeChunkFrame decodes and releases the move's frame, 32
// chunks of 202-byte blobs, as the controller's read loop and put worker
// do, and reports allocs/frame and ns/chunk.
func BenchmarkDecodeChunkFrame(b *testing.B) {
	k, _ := packet.ParseFlowKey("10.0.0.1:1234>192.168.1.2:80/tcp")
	m := &Message{Type: MsgChunk, ID: 1}
	for i := 0; i < 32; i++ {
		m.Chunks = append(m.Chunks, state.Chunk{Key: k, Blob: bytes.Repeat([]byte{byte(i)}, 202)})
	}
	d := newFrameDecoder(encodeFrame(b, m))
	d.next(b).Release()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for range b.N {
		d.next(b).Release()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/frame")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(m.Chunks)), "ns/chunk")
}

func BenchmarkCodecBinaryBatch32(b *testing.B) {
	benchCodec(b, CodecBinary, benchChunkMessage(32))
}

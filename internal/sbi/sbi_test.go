package sbi

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/netip"
	"sync"
	"testing"
	"testing/quick"

	"openmb/internal/packet"
	"openmb/internal/state"
)

func testKey(t *testing.T) packet.FlowKey {
	t.Helper()
	k, err := packet.ParseFlowKey("10.0.0.1:1234>192.168.1.2:80/tcp")
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func connPair() (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConn(a), NewConn(b)
}

func TestSendReceiveRequest(t *testing.T) {
	c1, c2 := connPair()
	defer c1.Close()
	defer c2.Close()
	m, _ := packet.ParseFieldMatch("[nw_src=1.1.1.0/24]")
	req := &Message{Type: MsgRequest, ID: 7, Op: OpGetSupportPerflow, Match: m}
	go func() {
		if err := c1.Send(req); err != nil {
			t.Error(err)
		}
	}()
	got, err := c2.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != MsgRequest || got.ID != 7 || got.Op != OpGetSupportPerflow {
		t.Fatalf("got %+v", got)
	}
	if got.Match.String() != "[nw_src=1.1.1.0/24]" {
		t.Fatalf("match round trip: %v", got.Match)
	}
}

func TestSendReceiveChunk(t *testing.T) {
	c1, c2 := connPair()
	defer c1.Close()
	defer c2.Close()
	k := testKey(t)
	blob := bytes.Repeat([]byte{0xAB}, 189)
	go c1.Send(&Message{Type: MsgChunk, ID: 3, Chunk: &state.Chunk{Key: k, Blob: blob}})
	got, err := c2.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if got.Chunk == nil || got.Chunk.Key != k || !bytes.Equal(got.Chunk.Blob, blob) {
		t.Fatalf("chunk mismatch: %+v", got.Chunk)
	}
}

func TestEventKeyRoundTrip(t *testing.T) {
	c1, c2 := connPair()
	defer c1.Close()
	defer c2.Close()
	k := testKey(t)
	ev := &Event{Kind: EventReprocess, Key: k, Seq: 42, Class: state.Supporting, Packet: []byte{1, 2, 3}}
	go c1.Send(&Message{Type: MsgEvent, Event: ev})
	got, err := c2.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if got.Event == nil || got.Event.Key != k || got.Event.Seq != 42 || got.Event.Kind != EventReprocess {
		t.Fatalf("event mismatch: %+v", got.Event)
	}
	if got.Event.Class != state.Supporting {
		t.Fatalf("class lost: %v", got.Event.Class)
	}
}

func TestIntrospectionEventValues(t *testing.T) {
	c1, c2 := connPair()
	defer c1.Close()
	defer c2.Close()
	k := testKey(t)
	ev := &Event{
		Kind: EventIntrospection, Key: k, Code: "nat.mapping.created",
		Values: map[string]string{"external": "5.5.5.5:4000"},
	}
	go c1.Send(&Message{Type: MsgEvent, Event: ev})
	got, err := c2.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if got.Event.Code != "nat.mapping.created" || got.Event.Values["external"] != "5.5.5.5:4000" {
		t.Fatalf("introspection mismatch: %+v", got.Event)
	}
}

func TestConcurrentSends(t *testing.T) {
	c1, c2 := connPair()
	defer c1.Close()
	defer c2.Close()
	const n = 200
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for j := 0; j < n/4; j++ {
				c1.Send(&Message{Type: MsgDone, ID: uint64(base + j)})
			}
		}(i * 1000)
	}
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		m, err := c2.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if seen[m.ID] {
			t.Fatalf("duplicate id %d: interleaved frames", m.ID)
		}
		seen[m.ID] = true
	}
	wg.Wait()
	if got := c1.Counters().Sent; got != n {
		t.Fatalf("sent counter: %d", got)
	}
}

func TestReceiveAfterCloseIsEOF(t *testing.T) {
	c1, c2 := connPair()
	c1.Close()
	if _, err := c2.Receive(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

func TestMessageJSONOmitsEmpty(t *testing.T) {
	b, err := json.Marshal(&Message{Type: MsgDone, ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, forbidden := range []string{"chunk", "event", "entries", "stats", "blob", "op"} {
		if bytes.Contains(b, []byte(`"`+forbidden+`"`)) {
			t.Errorf("empty field %q serialized: %s", forbidden, b)
		}
	}
}

func TestMemTransport(t *testing.T) {
	tr := NewMemTransport()
	l, err := tr.Listen("ctrl")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Addr().String() != "ctrl" || l.Addr().Network() != "mem" {
		t.Fatalf("addr: %v", l.Addr())
	}

	done := make(chan *Message, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		conn := NewConn(c)
		m, err := conn.Receive()
		if err != nil {
			t.Error(err)
			return
		}
		done <- m
	}()

	raw, err := tr.Dial("ctrl")
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(raw)
	if err := conn.Send(&Message{Type: MsgHello, Name: "prads1", Kind: "monitor"}); err != nil {
		t.Fatal(err)
	}
	m := <-done
	if m.Name != "prads1" || m.Kind != "monitor" {
		t.Fatalf("hello mismatch: %+v", m)
	}
}

func TestMemTransportIsolation(t *testing.T) {
	tr1 := NewMemTransport()
	tr2 := NewMemTransport()
	if _, err := tr1.Listen("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr2.Dial("x"); err == nil {
		t.Fatal("transports must be isolated namespaces")
	}
	if _, err := tr1.Listen("x"); err == nil {
		t.Fatal("duplicate listen must fail")
	}
}

func TestMemTransportClosedListener(t *testing.T) {
	tr := NewMemTransport()
	l, _ := tr.Listen("ctrl")
	l.Close()
	if _, err := tr.Dial("ctrl"); err == nil {
		t.Fatal("dial to closed listener must fail")
	}
	if _, err := l.Accept(); err == nil {
		t.Fatal("accept on closed listener must fail")
	}
	// Address is released; re-listen succeeds.
	if _, err := tr.Listen("ctrl"); err != nil {
		t.Fatalf("re-listen: %v", err)
	}
}

func TestTCPTransport(t *testing.T) {
	tr := TCPTransport{}
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback networking: %v", err)
	}
	defer l.Close()
	got := make(chan *Message, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		m, err := NewConn(c).Receive()
		if err != nil {
			return
		}
		got <- m
	}()
	raw, err := tr.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := NewConn(raw).Send(&Message{Type: MsgHello, Name: "bro1", Kind: "ips"}); err != nil {
		t.Fatal(err)
	}
	if m := <-got; m.Name != "bro1" {
		t.Fatalf("hello over TCP: %+v", m)
	}
}

func TestFlowKeyStringParseProperty(t *testing.T) {
	f := func(a, b [4]byte, sp, dp uint16, pr uint8) bool {
		protos := []uint8{packet.ProtoTCP, packet.ProtoUDP, packet.ProtoICMP, 47}
		k := packet.FlowKey{
			SrcIP:   netip.AddrFrom4(a),
			DstIP:   netip.AddrFrom4(b),
			SrcPort: sp, DstPort: dp,
			Proto: protos[int(pr)%len(protos)],
		}
		parsed, err := packet.ParseFlowKey(k.String())
		return err == nil && parsed == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParseFlowKeyErrors(t *testing.T) {
	bad := []string{
		"",
		"1.2.3.4:80",
		"1.2.3.4:80>5.6.7.8:90",
		"1.2.3.4>5.6.7.8:90/tcp",
		"1.2.3.4:80>5.6.7.8:90/xyz",
		"1.2.3.4:99999>5.6.7.8:90/tcp",
		"notanip:80>5.6.7.8:90/tcp",
	}
	for _, s := range bad {
		if _, err := packet.ParseFlowKey(s); err == nil {
			t.Errorf("%q: expected error", s)
		}
	}
	// proto47 round-trips.
	k, err := packet.ParseFlowKey("1.2.3.4:0>5.6.7.8:0/proto47")
	if err != nil || k.Proto != 47 {
		t.Fatalf("proto47: %v %v", k, err)
	}
}

func BenchmarkSendReceiveChunk(b *testing.B) {
	c1, c2 := connPair()
	defer c1.Close()
	defer c2.Close()
	k, _ := packet.ParseFlowKey("10.0.0.1:1234>192.168.1.2:80/tcp")
	msg := &Message{Type: MsgChunk, ID: 1, Chunk: &state.Chunk{Key: k, Blob: bytes.Repeat([]byte{1}, 189)}}
	go func() {
		for {
			if err := c1.Send(msg); err != nil {
				return
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c2.Receive(); err != nil {
			b.Fatal(err)
		}
	}
}

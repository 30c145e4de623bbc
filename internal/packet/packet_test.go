package packet

import (
	"bytes"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func samplePacket() *Packet {
	return &Packet{
		SrcIP:   addr("10.0.0.1"),
		DstIP:   addr("192.168.1.2"),
		Proto:   ProtoTCP,
		SrcPort: 43211,
		DstPort: 80,
		Seq:     1000,
		Ack:     2000,
		Flags:   FlagSYN | FlagACK,
		TTL:     64,
		ID:      7,
		Payload: []byte("GET / HTTP/1.1\r\n"),
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	p := samplePacket()
	b := p.Marshal(nil)
	if len(b) != headerLen+len(p.Payload) {
		t.Fatalf("header+payload=%d, got %d bytes", headerLen+len(p.Payload), len(b))
	}
	var q Packet
	if err := q.Unmarshal(b); err != nil {
		t.Fatal(err)
	}
	p.Timestamp = 0
	q.Timestamp = 0
	if p.SrcIP != q.SrcIP || p.DstIP != q.DstIP || p.Proto != q.Proto ||
		p.SrcPort != q.SrcPort || p.DstPort != q.DstPort ||
		p.Seq != q.Seq || p.Ack != q.Ack || p.Flags != q.Flags ||
		p.TTL != q.TTL || p.ID != q.ID || !bytes.Equal(p.Payload, q.Payload) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", p, q)
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	var q Packet
	if err := q.Unmarshal(make([]byte, headerLen-1)); err != ErrTruncated {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
	// Exactly headerLen bytes is a valid empty-payload packet.
	if err := q.Unmarshal(make([]byte, headerLen)); err != nil {
		t.Fatalf("headerLen bytes should parse: %v", err)
	}
	if len(q.Payload) != 0 {
		t.Fatalf("want empty payload, got %d bytes", len(q.Payload))
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := samplePacket()
	q := p.Clone()
	q.Payload[0] = 'X'
	if p.Payload[0] == 'X' {
		t.Fatal("Clone shares payload storage")
	}
	q.SrcPort = 1
	if p.SrcPort == 1 {
		t.Fatal("Clone shares header")
	}
}

// randomKey builds a FlowKey from quick-generated raw values.
func randomKey(r *rand.Rand) FlowKey {
	var a, b [4]byte
	r.Read(a[:])
	r.Read(b[:])
	protos := []uint8{ProtoTCP, ProtoUDP, ProtoICMP}
	return FlowKey{
		SrcIP:   netip.AddrFrom4(a),
		DstIP:   netip.AddrFrom4(b),
		Proto:   protos[r.Intn(len(protos))],
		SrcPort: uint16(r.Intn(65536)),
		DstPort: uint16(r.Intn(65536)),
	}
}

func TestFastHashSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := randomKey(r)
		id, _ := k.ID()
		rid, _ := k.Reverse().ID()
		return id.Hash() == rid.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalIdempotentAndDirectionless(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := randomKey(r)
		c := k.Canonical()
		return c == c.Canonical() && c == k.Reverse().Canonical()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReverseInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := randomKey(r)
		return k.Reverse().Reverse() == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(seed int64, payload []byte) bool {
		r := rand.New(rand.NewSource(seed))
		k := randomKey(r)
		p := &Packet{
			SrcIP: k.SrcIP, DstIP: k.DstIP, Proto: k.Proto,
			SrcPort: k.SrcPort, DstPort: k.DstPort,
			Seq: r.Uint32(), Ack: r.Uint32(),
			Flags: uint8(r.Intn(64)), TTL: uint8(r.Intn(256)),
			ID: uint16(r.Intn(65536)), Payload: payload,
		}
		var q Packet
		if err := q.Unmarshal(p.Marshal(nil)); err != nil {
			return false
		}
		return q.Flow() == p.Flow() && bytes.Equal(q.Payload, p.Payload) &&
			q.Seq == p.Seq && q.Ack == p.Ack && q.Flags == p.Flags && q.ID == p.ID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFlowKeyAsMapKey(t *testing.T) {
	m := map[FlowKey]int{}
	k := samplePacket().Flow()
	m[k] = 1
	m[k.Reverse()] = 2
	if len(m) != 2 {
		t.Fatalf("directed keys must be distinct, map has %d entries", len(m))
	}
	m2 := map[FlowKey]int{}
	m2[k.Canonical()] = 1
	m2[k.Reverse().Canonical()] = 2
	if len(m2) != 1 {
		t.Fatalf("canonical keys must collide, map has %d entries", len(m2))
	}
}

func TestFieldMatchBasics(t *testing.T) {
	k := FlowKey{
		SrcIP: addr("1.1.1.5"), DstIP: addr("2.2.2.2"),
		Proto: ProtoTCP, SrcPort: 1234, DstPort: 80,
	}
	cases := []struct {
		spec string
		want bool
	}{
		{"[*]", true},
		{"", true},
		{"[nw_src=1.1.1.0/24]", true},
		{"[nw_src=1.1.2.0/24]", false},
		{"[nw_src=1.1.1.5]", true},
		{"[nw_dst=2.2.2.2,tp_dst=80]", true},
		{"[nw_dst=2.2.2.2,tp_dst=443]", false},
		{"[nw_proto=tcp]", true},
		{"[nw_proto=udp]", false},
		{"[tp_src=1234]", true},
		{"[tp_src=1235]", false},
	}
	for _, c := range cases {
		m, err := ParseFieldMatch(c.spec)
		if err != nil {
			t.Fatalf("%q: %v", c.spec, err)
		}
		if got := matches(m, k); got != c.want {
			t.Errorf("%q.Match(%v) = %v, want %v", c.spec, k, got, c.want)
		}
	}
}

func TestFieldMatchEither(t *testing.T) {
	k := FlowKey{SrcIP: addr("1.1.1.5"), DstIP: addr("2.2.2.2"), Proto: ProtoTCP, SrcPort: 1234, DstPort: 80}
	m, _ := ParseFieldMatch("[nw_src=2.2.2.0/24]")
	if matches(m, k) {
		t.Fatal("forward direction should not match")
	}
	if !m.MatchEither(k) {
		t.Fatal("MatchEither should match the reverse direction")
	}
}

func TestFieldMatchStringRoundTrip(t *testing.T) {
	specs := []string{
		"[*]",
		"[nw_src=1.1.1.0/24]",
		"[nw_src=1.1.1.0/24,nw_dst=10.0.0.0/8,nw_proto=tcp,tp_src=5,tp_dst=80]",
		"[nw_proto=udp,tp_dst=53]",
		"[tp_src=0]",
	}
	for _, s := range specs {
		m, err := ParseFieldMatch(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		m2, err := ParseFieldMatch(m.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", m.String(), err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Errorf("%q: round trip mismatch %v vs %v", s, m, m2)
		}
	}
}

func TestFieldMatchJSONRoundTrip(t *testing.T) {
	m, _ := ParseFieldMatch("[nw_src=1.1.1.0/24,tp_dst=80]")
	b, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var m2 FieldMatch
	if err := m2.UnmarshalJSON(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, m2) {
		t.Fatalf("JSON round trip mismatch: %v vs %v", m, m2)
	}
}

func TestFieldMatchParseErrors(t *testing.T) {
	bad := []string{
		"[nw_src=notanip]",
		"[bogus=1]",
		"[nw_proto=xyz]",
		"[tp_src=notaport]",
		"[justtext]",
	}
	for _, s := range bad {
		if _, err := ParseFieldMatch(s); err == nil {
			t.Errorf("%q: expected parse error", s)
		}
	}
}

func TestConstrainsDst(t *testing.T) {
	m1, _ := ParseFieldMatch("[nw_src=1.1.1.0/24]")
	m2, _ := ParseFieldMatch("[nw_dst=2.2.2.2]")
	m3, _ := ParseFieldMatch("[tp_dst=80]")
	if m1.ConstrainsDst() {
		t.Error("src-only match should not constrain dst")
	}
	if !m2.ConstrainsDst() || !m3.ConstrainsDst() {
		t.Error("dst matches should constrain dst")
	}
}

func TestMatchSubsetProperty(t *testing.T) {
	// If a key matches a host-level predicate it must match the covering
	// subnet predicate too.
	subnet, _ := ParseFieldMatch("[nw_src=1.1.1.0/24]")
	f := func(last uint8, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := randomKey(r)
		k.SrcIP = netip.AddrFrom4([4]byte{1, 1, 1, last})
		host, _ := ParseFieldMatch("[nw_src=" + k.SrcIP.String() + "]")
		if !matches(host, k) {
			return false
		}
		return matches(subnet, k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshal(b *testing.B) {
	p := samplePacket()
	buf := make([]byte, 0, headerLen+len(p.Payload))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = p.Marshal(buf[:0])
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	p := samplePacket()
	wire := p.Marshal(nil)
	var q Packet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := q.Unmarshal(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFieldMatch(b *testing.B) {
	m, _ := ParseFieldMatch("[nw_src=10.0.0.0/8,nw_proto=tcp,tp_dst=80]")
	k := samplePacket().Flow()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		matches(m, k)
	}
}

// matches reports whether k satisfies every predicate of m; a key the ID
// form cannot hold (a non-IPv4 address) matches nothing.
func matches(m FieldMatch, k FlowKey) bool {
	id, ok := k.ID()
	return ok && m.ForID().Match(id)
}

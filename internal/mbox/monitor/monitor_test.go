package monitor

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"

	"openmb/internal/mbox"
	"openmb/internal/mbox/mbtest"
	"openmb/internal/packet"
	"openmb/internal/state"
	"openmb/internal/trace"
)

func process(t *testing.T, m *Monitor, pkts ...*packet.Packet) {
	t.Helper()
	rt := mbox.New("m", m, mbox.Options{})
	defer rt.Close()
	for _, p := range pkts {
		rt.HandlePacket(p)
	}
	if !rt.Drain(5e9) {
		t.Fatal("drain timeout")
	}
}

func tcpPkt(src, dst string, sp, dp uint16, flags uint8, payload string) *packet.Packet {
	return &packet.Packet{
		SrcIP: netip.MustParseAddr(src), DstIP: netip.MustParseAddr(dst),
		Proto: packet.ProtoTCP, SrcPort: sp, DstPort: dp,
		Flags: flags, TTL: 64, Payload: []byte(payload),
	}
}

func TestProcessCountsBothDirections(t *testing.T) {
	m := New()
	fwd := tcpPkt("10.0.0.1", "1.1.1.1", 1234, 80, packet.FlagSYN, "")
	rev := tcpPkt("1.1.1.1", "10.0.0.1", 80, 1234, packet.FlagSYN|packet.FlagACK, "")
	process(t, m, fwd, rev, fwd)
	if m.FlowCount() != 1 {
		t.Fatalf("flows: %d", m.FlowCount())
	}
	rec, ok := m.FlowRecord(fwd.Flow())
	if !ok {
		t.Fatal("record missing")
	}
	if rec.Packets[0]+rec.Packets[1] != 3 {
		t.Fatalf("packets: %v", rec.Packets)
	}
	s := m.Snapshot()
	if s.Shared.Packets != 3 || s.Shared.TCP != 3 || s.Shared.Flows != 1 {
		t.Fatalf("shared: %+v", s.Shared)
	}
}

func TestServiceDetection(t *testing.T) {
	m := New()
	process(t, m,
		tcpPkt("10.0.0.1", "1.1.1.1", 1234, 80, packet.FlagACK, "GET / HTTP/1.1\r\n"),
		tcpPkt("10.0.0.2", "1.1.1.2", 1235, 22, packet.FlagACK, "SSH-2.0-OpenSSH"),
	)
	rec1, _ := m.FlowRecord(tcpPkt("10.0.0.1", "1.1.1.1", 1234, 80, 0, "").Flow())
	rec2, _ := m.FlowRecord(tcpPkt("10.0.0.2", "1.1.1.2", 1235, 22, 0, "").Flow())
	if rec1.Service != "http" || rec2.Service != "ssh" {
		t.Fatalf("services: %q %q", rec1.Service, rec2.Service)
	}
	if m.Snapshot().Shared.AssetsFound != 2 {
		t.Fatalf("assets: %d", m.Snapshot().Shared.AssetsFound)
	}
}

// TestDetectServiceTable: the first-byte dispatch in front of the fingerprint
// list changes no result — every fingerprint, with and without trailing
// bytes, near-misses that share a first byte or a longer stem, and payloads
// that cannot match at all.
func TestDetectServiceTable(t *testing.T) {
	byList := func(payload []byte) string {
		for _, fp := range serviceFingerprints {
			if bytes.HasPrefix(payload, fp.prefix) {
				return fp.service
			}
		}
		return ""
	}
	cases := [][]byte{nil, {}, []byte("x"), []byte("\x00\x01"), []byte("get / http/1.1"), []byte(" GET /")}
	for _, fp := range serviceFingerprints {
		pre := fp.prefix
		flipped := append([]byte(nil), pre...)
		flipped[len(flipped)-1] ^= 0x20
		cases = append(cases,
			pre, append(append([]byte(nil), pre...), "rest of the payload"...),
			pre[:len(pre)-1], pre[:1], flipped, append([]byte("x"), pre...))
		if got := detectService(pre); got != fp.service {
			t.Errorf("detectService(%q) = %q, want %q", pre, got, fp.service)
		}
	}
	if len(serviceFingerprints) != 8 {
		t.Fatalf("%d fingerprints, the table was written for 8", len(serviceFingerprints))
	}
	for _, payload := range cases {
		if got, want := detectService(payload), byList(payload); got != want {
			t.Errorf("detectService(%q) = %q, the ordered list gives %q", payload, got, want)
		}
	}
}

func TestServiceDetectionConfigurable(t *testing.T) {
	m := New()
	if err := m.Config().Set("service_detection", []string{"off"}); err != nil {
		t.Fatal(err)
	}
	process(t, m, tcpPkt("10.0.0.1", "1.1.1.1", 1234, 80, packet.FlagACK, "GET / HTTP/1.1\r\n"))
	rec, _ := m.FlowRecord(tcpPkt("10.0.0.1", "1.1.1.1", 1234, 80, 0, "").Flow())
	if rec.Service != "" {
		t.Fatalf("detection ran while disabled: %q", rec.Service)
	}
}

func TestOSDetectionFromSYN(t *testing.T) {
	m := New()
	p := tcpPkt("10.0.0.1", "1.1.1.1", 1234, 80, packet.FlagSYN, "")
	p.TTL = 128
	process(t, m, p)
	rec, _ := m.FlowRecord(p.Flow())
	if rec.OS != "windows" {
		t.Fatalf("os: %q", rec.OS)
	}
}

// marshal and unmarshal are the record codec's two directions, for a record
// exported under its canonical key.
func marshal(c *connRecord) []byte { return (*recordCodec)(nil).Append(nil, c) }

func unmarshal(b []byte) (*connRecord, error) {
	return (*recordCodec)(nil).Decode(packet.FlowID{}, b)
}

func TestRecordMarshalRoundTrip(t *testing.T) {
	f := func(p0, p1, b0, b1 uint64, first, last int64, svcIdx uint8) bool {
		services := []string{"", "http", "ssh", "smtp"}
		rec := connRecord{
			FirstSeen: first, LastSeen: last,
			Packets: [2]uint64{p0, p1}, Bytes: [2]uint64{b0, b1},
			Service: services[int(svcIdx)%len(services)], OS: "linux/unix",
		}
		got, err := unmarshal(marshal(&rec))
		if err != nil {
			return false
		}
		return got.Packets == rec.Packets && got.Bytes == rec.Bytes &&
			got.FirstSeen == rec.FirstSeen && got.LastSeen == rec.LastSeen &&
			got.Service == rec.Service && got.OS == rec.OS
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordUnmarshalErrors(t *testing.T) {
	if _, err := unmarshal(make([]byte, 10)); err == nil {
		t.Fatal("short record should fail")
	}
	good := marshal(&connRecord{Service: "http"})
	if _, err := unmarshal(good[:len(good)-2]); err == nil {
		t.Fatal("truncated strings should fail")
	}
}

func TestGetPutMoveConservesCounts(t *testing.T) {
	src := New()
	tr := trace.Cloud(trace.CloudConfig{Seed: 1, Flows: 30})
	rt := mbox.New("src", src, mbox.Options{})
	defer rt.Close()
	for _, p := range tr.Packets {
		rt.HandlePacket(p)
	}
	if !rt.Drain(5e9) {
		t.Fatal("drain")
	}
	total := src.TotalPerflowPackets()

	dst := New()
	err := mbox.ExportPerflow(src, state.Reporting, packet.MatchAll, func(id packet.FlowID, blob []byte) error {
		return dst.PutPerflow(state.Reporting, state.Chunk{Key: id.Key(), Blob: blob})
	})
	if err != nil {
		t.Fatal(err)
	}
	if dst.TotalPerflowPackets() != total {
		t.Fatalf("per-flow packet counters not conserved: %d vs %d", dst.TotalPerflowPackets(), total)
	}
	if dst.FlowCount() != src.FlowCount() {
		t.Fatalf("flow counts: %d vs %d", dst.FlowCount(), src.FlowCount())
	}
}

func TestPutMergesExistingRecord(t *testing.T) {
	m := New()
	p := tcpPkt("10.0.0.1", "1.1.1.1", 1234, 80, packet.FlagACK, "x")
	process(t, m, p)
	incoming := connRecord{FirstSeen: -100, LastSeen: 999, Packets: [2]uint64{5, 3}, Bytes: [2]uint64{50, 30}, Service: "http"}
	if err := m.PutPerflow(state.Reporting, state.Chunk{Key: p.Flow().Canonical(), Blob: marshal(&incoming)}); err != nil {
		t.Fatal(err)
	}
	rec, _ := m.FlowRecord(p.Flow())
	if rec.Packets[0]+rec.Packets[1] != 9 { // 1 local + 8 incoming
		t.Fatalf("merged packets: %v", rec.Packets)
	}
	if rec.FirstSeen != -100 || rec.LastSeen != 999 {
		t.Fatalf("merged times: %d %d", rec.FirstSeen, rec.LastSeen)
	}
	if rec.Service != "http" {
		t.Fatalf("merged service: %q", rec.Service)
	}
	if m.Snapshot().Shared.Flows != 1 {
		t.Fatal("merge inflated flow count")
	}

	// A chunk keyed by the flow's other direction (p's own: the server's
	// endpoint is the lower one) merges into the same record, its
	// per-direction counters turned to the canonical direction.
	if p.Flow() == p.Flow().Canonical() {
		t.Fatal("test packet's flow is already canonical")
	}
	reversed := connRecord{FirstSeen: 5, LastSeen: 6, Packets: [2]uint64{2, 7}, Bytes: [2]uint64{20, 70}}
	if err := m.PutPerflow(state.Reporting, state.Chunk{Key: p.Flow(), Blob: marshal(&reversed)}); err != nil {
		t.Fatal(err)
	}
	rec, _ = m.FlowRecord(p.Flow())
	if m.FlowCount() != 1 || m.Snapshot().Shared.Flows != 1 {
		t.Fatalf("non-canonical chunk key made a second record: %d flows", m.FlowCount())
	}
	if want := [2]uint64{5 + 7, 3 + 1 + 2}; rec.Packets != want {
		t.Fatalf("merged packets %v, want %v", rec.Packets, want)
	}
	if want := [2]uint64{50 + 70, 30 + 1 + 20}; rec.Bytes != want {
		t.Fatalf("merged bytes %v, want %v", rec.Bytes, want)
	}
}

func TestSharedMergeIsSum(t *testing.T) {
	a, b := New(), New()
	process(t, a, tcpPkt("10.0.0.1", "1.1.1.1", 1, 80, 0, "xx"))
	process(t, b,
		tcpPkt("10.0.0.2", "1.1.1.1", 2, 80, 0, "yyy"),
		tcpPkt("10.0.0.3", "1.1.1.1", 3, 80, 0, "z"))
	blob, err := a.GetShared(state.Reporting, func() {})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.PutShared(state.Reporting, blob); err != nil {
		t.Fatal(err)
	}
	s := b.Snapshot()
	if s.Shared.Packets != 3 || s.Shared.Bytes != 6 || s.Shared.Flows != 3 {
		t.Fatalf("merged shared: %+v", s.Shared)
	}
}

func TestSharedMergeProperty(t *testing.T) {
	// Merging shared stats is commutative in the total: sum(a)+sum(b)
	// regardless of merge direction.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() *Monitor {
			m := New()
			var s sharedStat
			s.Packets = uint64(r.Intn(1000))
			s.Bytes = uint64(r.Intn(100000))
			s.Flows = uint64(r.Intn(50))
			m.shared = s
			return m
		}
		a1, b1 := mk(), mk()
		aPkts, bPkts := a1.shared.Packets, b1.shared.Packets
		blob, _ := a1.GetShared(state.Reporting, func() {})
		if err := b1.PutShared(state.Reporting, blob); err != nil {
			return false
		}
		return b1.shared.Packets == aPkts+bPkts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDelPerflowSilent(t *testing.T) {
	m := New()
	process(t, m,
		tcpPkt("10.0.0.1", "1.1.1.1", 1, 80, 0, "x"),
		tcpPkt("10.0.0.2", "1.1.1.1", 2, 80, 0, "x"))
	match, _ := packet.ParseFieldMatch("[nw_src=10.0.0.1]")
	n, err := mbox.DelPerflow(m, state.Reporting, match)
	if err != nil || n != 1 {
		t.Fatalf("del: n=%d err=%v", n, err)
	}
	if m.FlowCount() != 1 {
		t.Fatalf("flows after del: %d", m.FlowCount())
	}
	// Shared flow counter unchanged: the flows were genuinely observed.
	if m.Snapshot().Shared.Flows != 2 {
		t.Fatalf("shared flows: %d", m.Snapshot().Shared.Flows)
	}
}

func TestGetPerflowOnlyReporting(t *testing.T) {
	m := New()
	process(t, m, tcpPkt("10.0.0.1", "1.1.1.1", 1, 80, 0, "x"))
	calls := 0
	err := mbox.ExportPerflow(m, state.Supporting, packet.MatchAll, func(packet.FlowID, []byte) error {
		calls++
		return nil
	})
	if err != nil || calls != 0 {
		t.Fatalf("supporting get should be empty: calls=%d err=%v", calls, err)
	}
}

func TestSharedClassErrors(t *testing.T) {
	m := New()
	if _, err := m.GetShared(state.Supporting, func() {}); err == nil {
		t.Fatal("monitor has no shared supporting state")
	}
	if err := m.PutShared(state.Supporting, make([]byte, sharedWireSize)); err == nil {
		t.Fatal("put of unsupported class should fail")
	}
	if err := m.PutShared(state.Reporting, []byte{1, 2}); err == nil {
		t.Fatal("short shared blob should fail")
	}
}

func TestStatsMatchesContents(t *testing.T) {
	m := New()
	process(t, m,
		tcpPkt("10.0.0.1", "1.1.1.1", 1, 80, 0, "x"),
		tcpPkt("10.0.0.2", "1.1.1.1", 2, 80, 0, "x"),
		tcpPkt("10.0.1.3", "1.1.1.1", 3, 80, 0, "x"))
	match, _ := packet.ParseFieldMatch("[nw_src=10.0.0.0/24]")
	s := m.Stats(match)
	if s.ReportPerflowChunks != 2 {
		t.Fatalf("stats chunks: %d", s.ReportPerflowChunks)
	}
	if s.ReportSharedBytes != sharedWireSize {
		t.Fatalf("stats shared bytes: %d", s.ReportSharedBytes)
	}
}

func TestIntrospectionEventOnAsset(t *testing.T) {
	m := New()
	rt := mbox.New("m", m, mbox.Options{})
	defer rt.Close()
	rt.HandlePacket(tcpPkt("10.0.0.1", "1.1.1.1", 1234, 80, packet.FlagACK, "GET / HTTP/1.1\r\n"))
	rt.Drain(5e9)
	// Without a controller connection events go nowhere, but the counter
	// still shows whether the filter would have fired; filters default
	// off, so IntroRaised must be zero.
	if rt.Metrics().IntroRaised != 0 {
		t.Fatal("introspection raised without an enabled filter")
	}
}

func BenchmarkProcess(b *testing.B) {
	m := New()
	ctx := mbox.NewBenchContext()
	p := tcpPkt("10.0.0.1", "1.1.1.1", 1234, 80, packet.FlagACK, "GET / HTTP/1.1\r\n")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mbtest.ProcessOne(m, ctx, p)
	}
}

func BenchmarkLinearScanGet(b *testing.B) {
	m := New()
	rt := mbox.New("m", m, mbox.Options{})
	defer rt.Close()
	tr := trace.Cloud(trace.CloudConfig{Seed: 2, Flows: 500})
	for _, p := range tr.Packets {
		rt.HandlePacket(p)
	}
	rt.Drain(30e9)
	match, _ := packet.ParseFieldMatch("[nw_src=10.1.0.0/16]")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mbox.ExportPerflow(m, state.Reporting, match, func(packet.FlowID, []byte) error { return nil })
	}
}

func TestIndexInsertRemoveProperty(t *testing.T) {
	// Insert/remove keep the index consistent and duplicate-free: a lookup
	// covering everything returns each inserted key exactly once, and
	// removing every key empties the index.
	all, _ := packet.ParseFieldMatch("[nw_dst=1.1.1.1]")
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ix := state.NewFlowIndex()
		distinct := map[packet.FlowKey]bool{}
		var keys []packet.FlowKey
		for i := 0; i < 50; i++ {
			var a [4]byte
			r.Read(a[:])
			k := packet.FlowKey{
				SrcIP: netip.AddrFrom4(a), DstIP: netip.AddrFrom4([4]byte{1, 1, 1, 1}),
				Proto: packet.ProtoTCP, SrcPort: uint16(r.Intn(1000)), DstPort: 80,
			}
			ix.Insert(k)
			ix.Insert(k) // duplicate: no-op
			distinct[k] = true
			keys = append(keys, k)
		}
		got, ok := ix.Lookup(all)
		if !ok || len(got) != len(distinct) || ix.Len() != len(distinct) {
			return false
		}
		seen := map[packet.FlowKey]bool{}
		for _, k := range got {
			if seen[k] || !distinct[k] {
				return false
			}
			seen[k] = true
		}
		for _, k := range keys {
			id, _ := k.ID()
			ix.RemoveID(id)
		}
		return ix.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

package re

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"openmb/internal/mbox"
	"openmb/internal/mbox/mbtest"
	"openmb/internal/packet"
	"openmb/internal/state"
	"openmb/internal/trace"
)

func payloadPkt(dst string, payload []byte) *packet.Packet {
	return &packet.Packet{
		SrcIP: netip.MustParseAddr("172.16.0.1"), DstIP: netip.MustParseAddr(dst),
		Proto: packet.ProtoTCP, SrcPort: 4000, DstPort: 80,
		Payload: payload,
	}
}

func randBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

func TestEncodeDecodeRoundTripFresh(t *testing.T) {
	enc := NewCache(1 << 16)
	dec := NewCache(1 << 16)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		payload := randBytes(r, 200+r.Intn(800))
		encoded, _ := encode(payload, enc, []*Cache{enc})
		got, st, err := decode(encoded, dec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip mismatch at packet %d", i)
		}
		if st.UndecodableBytes != 0 {
			t.Fatalf("undecodable bytes on synced caches: %d", st.UndecodableBytes)
		}
	}
	if enc.InsertPos() != dec.InsertPos() {
		t.Fatalf("cache positions diverged: %d vs %d", enc.InsertPos(), dec.InsertPos())
	}
}

func TestRedundantPayloadCompresses(t *testing.T) {
	enc := NewCache(1 << 16)
	dec := NewCache(1 << 16)
	r := rand.New(rand.NewSource(2))
	block := randBytes(r, 700)
	// First sight: no compression possible.
	e1, st1 := encode(block, enc, []*Cache{enc})
	if st1.MatchBytes != 0 {
		t.Fatalf("first sight matched: %+v", st1)
	}
	if _, _, err := decode(e1, dec); err != nil {
		t.Fatal(err)
	}
	// Second sight: nearly everything should match.
	e2, st2 := encode(block, enc, []*Cache{enc})
	if st2.MatchBytes < uint64(len(block))*8/10 {
		t.Fatalf("repeat not compressed: %+v (encoded %d bytes)", st2, len(e2))
	}
	if len(e2) >= len(block) {
		t.Fatalf("encoded repeat not smaller: %d vs %d", len(e2), len(block))
	}
	got, st, err := decode(e2, dec)
	if err != nil || !bytes.Equal(got, block) {
		t.Fatalf("repeat decode: %v", err)
	}
	if st.UndecodableBytes != 0 {
		t.Fatal("undecodable on synced repeat")
	}
}

func TestDecodeDesyncIsUndecodable(t *testing.T) {
	// The decoder misses one insert (the routing-lag failure of §8.1.2):
	// subsequent matches must fail verification, not silently corrupt.
	enc := NewCache(1 << 16)
	dec := NewCache(1 << 16)
	r := rand.New(rand.NewSource(3))
	block := randBytes(r, 700)
	e1, _ := encode(block, enc, []*Cache{enc})
	_ = e1 // lost in flight: decoder never sees it
	e2, st2 := encode(block, enc, []*Cache{enc})
	if st2.MatchBytes == 0 {
		t.Fatal("setup: repeat did not match")
	}
	got, st, err := decode(e2, dec)
	if err != nil {
		t.Fatal(err)
	}
	if st.UndecodableBytes == 0 {
		t.Fatal("desynced decode reported success")
	}
	if bytes.Equal(got, block) {
		t.Fatal("desynced decode silently produced correct bytes")
	}
}

func TestShortPayloadPassthrough(t *testing.T) {
	enc := NewCache(1 << 12)
	dec := NewCache(1 << 12)
	payload := []byte("tiny")
	encoded, st := encode(payload, enc, []*Cache{enc})
	if st.MatchBytes != 0 || st.LiteralBytes != 4 {
		t.Fatalf("stats: %+v", st)
	}
	got, _, err := decode(encoded, dec)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("short payload: %v", err)
	}
}

func TestEncodeDecodePropertyRandomStreams(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		enc := NewCache(1 << 14)
		dec := NewCache(1 << 14)
		pool := [][]byte{randBytes(r, 300), randBytes(r, 500), randBytes(r, 700)}
		for i := 0; i < 30; i++ {
			var payload []byte
			if r.Float64() < 0.6 {
				payload = pool[r.Intn(len(pool))]
			} else {
				payload = randBytes(r, 100+r.Intn(600))
			}
			encoded, _ := encode(payload, enc, []*Cache{enc})
			got, st, err := decode(encoded, dec)
			if err != nil || !bytes.Equal(got, payload) || st.UndecodableBytes != 0 {
				return false
			}
		}
		return enc.InsertPos() == dec.InsertPos()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRingWrapAround(t *testing.T) {
	// Cache far smaller than the stream: old regions evict; encoding
	// still round-trips because both sides evict identically.
	enc := NewCache(4096)
	dec := NewCache(4096)
	r := rand.New(rand.NewSource(4))
	block := randBytes(r, 700)
	for i := 0; i < 40; i++ {
		var payload []byte
		if i%3 == 0 {
			payload = block
		} else {
			payload = randBytes(r, 500)
		}
		encoded, _ := encode(payload, enc, []*Cache{enc})
		got, st, err := decode(encoded, dec)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("wrap-around packet %d: %v", i, err)
		}
		if st.UndecodableBytes != 0 {
			t.Fatalf("wrap-around undecodable at %d", i)
		}
	}
}

func TestCacheMarshalRoundTrip(t *testing.T) {
	c := NewCache(8192)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 10; i++ {
		c.Insert(randBytes(r, 400))
	}
	got, err := UnmarshalCache(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.InsertPos() != c.InsertPos() || got.FPCount() != c.FPCount() {
		t.Fatalf("round trip: pos %d/%d fps %d/%d", got.InsertPos(), c.InsertPos(), got.FPCount(), c.FPCount())
	}
	if !bytes.Equal(got.ring, c.ring) {
		t.Fatal("ring content differs")
	}
}

func TestCacheUnmarshalErrors(t *testing.T) {
	if _, err := UnmarshalCache(nil); err == nil {
		t.Fatal("nil blob")
	}
	c := NewCache(4096)
	blob := c.Marshal()
	blob[0] = 99
	if _, err := UnmarshalCache(blob); err == nil {
		t.Fatal("bad version")
	}
	blob[0] = cacheWireVersion
	if _, err := UnmarshalCache(blob[:len(blob)-1]); err == nil {
		t.Fatal("truncated blob")
	}
}

func TestCacheCloneIndependence(t *testing.T) {
	c := NewCache(8192)
	r := rand.New(rand.NewSource(6))
	c.Insert(randBytes(r, 400))
	cl := c.Clone()
	if cl.InsertPos() != c.InsertPos() {
		t.Fatal("clone position differs")
	}
	c.Insert(randBytes(r, 400))
	if cl.InsertPos() == c.InsertPos() {
		t.Fatal("clone shares state with original")
	}
}

func TestCacheMergeAdoptsWhenEmpty(t *testing.T) {
	src := NewCache(8192)
	r := rand.New(rand.NewSource(7))
	src.Insert(randBytes(r, 500))
	dst := NewCache(8192)
	if err := dst.MergeFrom(src.Marshal()); err != nil {
		t.Fatal(err)
	}
	if dst.InsertPos() != src.InsertPos() || dst.FPCount() != src.FPCount() {
		t.Fatal("empty-cache merge should adopt wholesale")
	}
}

func TestCacheMergeByHitCount(t *testing.T) {
	src := NewCache(8192)
	r := rand.New(rand.NewSource(8))
	hot := randBytes(r, 200)
	src.Insert(hot)
	// Touch the hot content so its fingerprints gain hits.
	for i := 0; i < 5; i++ {
		encode(hot, src, nil)
	}
	dst := NewCache(8192)
	dst.Insert(randBytes(r, 300)) // non-empty: real merge path
	before := dst.FPCount()
	if err := dst.MergeFrom(src.Marshal()); err != nil {
		t.Fatal(err)
	}
	if dst.FPCount() <= before {
		t.Fatal("merge imported no fingerprints")
	}
}

func TestEncoderNumCachesAndCacheFlows(t *testing.T) {
	enc := NewEncoder(1 << 14)
	rt := mbox.New("enc", enc, mbox.Options{})
	defer rt.Close()
	if enc.CacheCount() != 1 {
		t.Fatalf("initial caches: %d", enc.CacheCount())
	}
	// Step 3 of the migration app: add a second cache.
	if err := enc.Config().Set("NumCaches", []string{"2"}); err != nil {
		t.Fatal(err)
	}
	if enc.CacheCount() != 2 {
		t.Fatalf("caches after NumCaches=2: %d", enc.CacheCount())
	}
	// Step 5: split traffic between the caches.
	if err := enc.Config().Set("CacheFlows", []string{"1.1.1.0/24", "1.1.2.0/24"}); err != nil {
		t.Fatal(err)
	}
	enc.mu.Lock()
	enc.applyConfigLocked()
	mirror, prefixes := enc.mirror, len(enc.prefixes)
	enc.mu.Unlock()
	if mirror || prefixes != 2 {
		t.Fatalf("CacheFlows not applied: mirror=%v prefixes=%d", mirror, prefixes)
	}
}

func TestEncoderDecoderEndToEnd(t *testing.T) {
	enc := NewEncoder(1 << 16)
	dec := NewDecoder(1 << 16)
	decRT := mbox.New("dec", dec, mbox.Options{})
	defer decRT.Close()
	var got [][]byte
	decRT.SetForward(func(p *packet.Packet) {
		got = append(got, append([]byte(nil), p.Payload...))
	})
	encRT := mbox.New("enc", enc, mbox.Options{})
	encRT.SetForward(decRT.HandlePacket)
	defer encRT.Close()

	tr := trace.Redundant(trace.RedundantConfig{Seed: 9, Flows: 6})
	var want [][]byte
	for _, p := range tr.Packets {
		if len(p.Payload) > 0 {
			want = append(want, append([]byte(nil), p.Payload...))
			encRT.HandlePacket(p)
		}
	}
	encRT.Drain(10 * time.Second)
	decRT.Drain(10 * time.Second)

	if len(got) != len(want) {
		t.Fatalf("packets: got %d want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("payload %d mismatch", i)
		}
	}
	if _, undec, _ := dec.Report(); undec != 0 {
		t.Fatalf("undecodable bytes on clean path: %d", undec)
	}
	if _, _, matchBytes, _ := enc.Report(); matchBytes == 0 {
		t.Fatal("redundant trace produced no matches")
	}
}

func TestDecoderCloneViaSharedState(t *testing.T) {
	// Live migration, steps 2: the new decoder receives the cache clone
	// and can immediately decode traffic encoded against the original.
	enc := NewEncoder(1 << 16)
	oldDec := NewDecoder(1 << 16)
	r := rand.New(rand.NewSource(10))

	// Drive encoder->oldDec through runtimes for realism.
	oldRT := mbox.New("old", oldDec, mbox.Options{})
	defer oldRT.Close()
	encRT := mbox.New("enc", enc, mbox.Options{})
	encRT.SetForward(oldRT.HandlePacket)
	defer encRT.Close()
	block := randBytes(r, 700)
	for i := 0; i < 10; i++ {
		encRT.HandlePacket(payloadPkt("1.1.2.5", block))
	}
	encRT.Drain(5 * time.Second)
	oldRT.Drain(5 * time.Second)

	// Clone old decoder's cache into a new decoder.
	blob, err := oldDec.GetShared(state.Supporting, func() {})
	if err != nil {
		t.Fatal(err)
	}
	newDec := NewDecoder(1 << 16)
	if err := newDec.PutShared(state.Supporting, blob); err != nil {
		t.Fatal(err)
	}
	if newDec.CachePos() != oldDec.CachePos() {
		t.Fatalf("clone out of sync: %d vs %d", newDec.CachePos(), oldDec.CachePos())
	}

	// Traffic encoded against the (single) encoder cache now decodes at
	// the new decoder.
	newRT := mbox.New("new", newDec, mbox.Options{})
	defer newRT.Close()
	var decoded []byte
	newRT.SetForward(func(p *packet.Packet) { decoded = append([]byte(nil), p.Payload...) })
	encRT.SetForward(newRT.HandlePacket)
	encRT.HandlePacket(payloadPkt("1.1.2.5", block))
	encRT.Drain(5 * time.Second)
	newRT.Drain(5 * time.Second)
	if !bytes.Equal(decoded, block) {
		t.Fatal("cloned decoder failed to decode")
	}
	if _, undec, _ := newDec.Report(); undec != 0 {
		t.Fatalf("undecodable at cloned decoder: %d", undec)
	}
}

func TestMirrorKeepsCachesInSync(t *testing.T) {
	enc := NewEncoder(1 << 14)
	enc.Config().Set("NumCaches", []string{"2"})
	r := rand.New(rand.NewSource(11))
	ctx := mbox.NewBenchContext()
	for i := 0; i < 5; i++ {
		mbtest.ProcessOne(enc, ctx, payloadPkt("1.1.1.5", randBytes(r, 300)))
	}
	enc.mu.Lock()
	pos0, pos1 := enc.caches[0].InsertPos(), enc.caches[1].InsertPos()
	enc.mu.Unlock()
	if pos0 != pos1 {
		t.Fatalf("mirror mode diverged: %d vs %d", pos0, pos1)
	}
	// After CacheFlows, inserts split.
	enc.Config().Set("CacheFlows", []string{"1.1.1.0/24", "1.1.2.0/24"})
	mbtest.ProcessOne(enc, ctx, payloadPkt("1.1.1.5", randBytes(r, 300)))
	enc.mu.Lock()
	pos0b, pos1b := enc.caches[0].InsertPos(), enc.caches[1].InsertPos()
	enc.mu.Unlock()
	if pos0b == pos0 || pos1b != pos1 {
		t.Fatalf("CacheFlows split not applied: %d->%d, %d->%d", pos0, pos0b, pos1, pos1b)
	}
}

func TestReportMergeSums(t *testing.T) {
	a, b := NewDecoder(1<<12), NewDecoder(1<<12)
	a.report.Matches = 5
	a.report.UndecodableBytes = 100
	blob, err := a.GetShared(state.Reporting, func() {})
	if err != nil {
		t.Fatal(err)
	}
	b.report.Matches = 2
	if err := b.PutShared(state.Reporting, blob); err != nil {
		t.Fatal(err)
	}
	if b.report.Matches != 7 || b.report.UndecodableBytes != 100 {
		t.Fatalf("merged report: %+v", b.report)
	}
}

func TestNoPerflowState(t *testing.T) {
	enc, dec := NewEncoder(1<<12), NewDecoder(1<<12)
	for _, logic := range []mbox.Logic{enc, dec} {
		calls := 0
		err := mbox.ExportPerflow(logic, state.Supporting, packet.MatchAll, func(packet.FlowID, []byte) error {
			calls++
			return nil
		})
		if err != nil || calls != 0 {
			t.Fatalf("%s: per-flow get should be empty", logic.Kind())
		}
		if err := mbox.PutPerflow(logic, state.Supporting, state.Chunk{}); err == nil {
			t.Fatalf("%s: per-flow put should fail", logic.Kind())
		}
	}
}

func TestNonEncodedPassthrough(t *testing.T) {
	dec := NewDecoder(1 << 12)
	rt := mbox.New("dec", dec, mbox.Options{})
	defer rt.Close()
	var got []byte
	rt.SetForward(func(p *packet.Packet) { got = p.Payload })
	rt.HandlePacket(payloadPkt("1.1.1.1", []byte("plain traffic")))
	rt.Drain(5 * time.Second)
	if string(got) != "plain traffic" {
		t.Fatalf("passthrough: %q", got)
	}
}

func BenchmarkEncodeRedundant(b *testing.B) {
	enc := NewCache(1 << 20)
	r := rand.New(rand.NewSource(12))
	block := randBytes(r, 1400)
	encode(block, enc, []*Cache{enc})
	b.SetBytes(int64(len(block)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encode(block, enc, nil)
	}
}

func BenchmarkEncodeFresh(b *testing.B) {
	enc := NewCache(1 << 20)
	r := rand.New(rand.NewSource(13))
	payloads := make([][]byte, 64)
	for i := range payloads {
		payloads[i] = randBytes(r, 1400)
	}
	b.SetBytes(1400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encode(payloads[i%len(payloads)], enc, []*Cache{enc})
	}
}

func BenchmarkCacheMarshal(b *testing.B) {
	c := NewCache(1 << 20)
	r := rand.New(rand.NewSource(14))
	for i := 0; i < 100; i++ {
		c.Insert(randBytes(r, 1000))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Marshal()
	}
}

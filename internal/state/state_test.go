package state

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	mrand "math/rand"
	"sync"
	"testing"
	"testing/quick"

	"openmb/internal/racedetect"
)

func TestClassScopeStrings(t *testing.T) {
	cases := map[string]string{
		Config.String():     "config",
		Supporting.String(): "supporting",
		Reporting.String():  "reporting",
		PerFlow.String():    "perflow",
		Shared.String():     "shared",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("got %q want %q", got, want)
		}
	}
	if Class(99).String() == "" || Scope(99).String() == "" {
		t.Error("unknown values should still render")
	}
}

func TestSealRoundTrip(t *testing.T) {
	s := NewSealer("bro-shared-key")
	for _, pt := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("conn"), 1000)} {
		sealed := s.Seal(pt)
		got, err := s.Open(sealed)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if !bytes.Equal(got, pt) {
			t.Fatalf("round trip mismatch: %d bytes in, %d out", len(pt), len(got))
		}
	}
}

func TestSealRoundTripProperty(t *testing.T) {
	s := NewSealer("k")
	f := func(pt []byte) bool {
		got, err := s.Open(s.Seal(pt))
		return err == nil && bytes.Equal(got, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSealOpaqueness(t *testing.T) {
	// The controller must not be able to see plaintext: ciphertext should
	// not contain the plaintext bytes.
	s := NewSealer("k")
	pt := []byte("10.0.0.1:1234 ESTABLISHED bytes=1234567")
	sealed := s.Seal(pt)
	if bytes.Contains(sealed, pt[:16]) {
		t.Fatal("sealed blob leaks plaintext")
	}
	// Two seals of the same plaintext differ (fresh nonce).
	if bytes.Equal(sealed, s.Seal(pt)) {
		t.Fatal("sealing is deterministic; nonce reuse")
	}
}

// refAEAD, refSeal and refOpen define the sealed format with every
// primitive built per call and the nonce supplied by the caller: AES-128-GCM
// under the first 16 bytes of SHA-256("openmb-enc:" + secret), a blob being
// nonce(12) || ct || tag(16). The live code must produce and accept exactly
// these bytes.
func refAEAD(secret string) cipher.AEAD {
	key := sha256.Sum256([]byte("openmb-enc:" + secret))
	block, err := aes.NewCipher(key[:16])
	if err != nil {
		panic(err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic(err)
	}
	return aead
}

func refSeal(secret string, nonce, plaintext []byte) []byte {
	return refAEAD(secret).Seal(bytes.Clone(nonce), nonce, plaintext, nil)
}

func refOpen(secret string, sealed []byte) ([]byte, error) {
	if len(sealed) < 12+16 {
		return nil, ErrSealOpen
	}
	pt, err := refAEAD(secret).Open(nil, sealed[:12], sealed[12:], nil)
	if err != nil {
		return nil, ErrSealOpen
	}
	return pt, nil
}

// sealSizes covers the empty blob, both sides of every AES block boundary up
// to four blocks, the benchmark's 202 B, and seeded sizes up to 4 KiB.
func sealSizes(rng *mrand.Rand) []int {
	sizes := []int{0, 202, 4095, 4096}
	for n := 1; n <= 65; n++ {
		sizes = append(sizes, n)
	}
	for i := 0; i < 64; i++ {
		sizes = append(sizes, rng.Intn(4097))
	}
	return sizes
}

// TestSealMatchesReference: blobs sealed by the live code open under the
// reference and yield, for the nonce they carry, exactly the reference's
// bytes; blobs sealed by the reference open under the live code.
func TestSealMatchesReference(t *testing.T) {
	const secret = "openmb-mbtype-counter"
	s := NewSealer(secret)
	rng := mrand.New(mrand.NewSource(14))
	for _, n := range sealSizes(rng) {
		pt := make([]byte, n)
		rng.Read(pt)
		sealed := s.Seal(pt)
		if len(sealed) != n+12+16 {
			t.Fatalf("size %d: sealed to %d bytes, want %d", n, len(sealed), n+12+16)
		}
		if want := refSeal(secret, sealed[:12], pt); !bytes.Equal(sealed, want) {
			t.Fatalf("size %d: sealed bytes differ from the reference for the same nonce", n)
		}
		if got, err := refOpen(secret, sealed); err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("size %d: reference cannot open a live blob: %v", n, err)
		}
		nonce := make([]byte, 12)
		rng.Read(nonce)
		if got, err := s.Open(refSeal(secret, nonce, pt)); err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("size %d: live code cannot open a reference blob: %v", n, err)
		}
	}
}

// TestSealGoldenFromParent opens blobs sealed by the first AES-128-GCM
// sealer, the commit that replaced AES-CTR + HMAC-SHA256: the wire format
// does not move again unannounced.
func TestSealGoldenFromParent(t *testing.T) {
	s := NewSealer("openmb-golden")
	for _, g := range []struct{ hex, want string }{
		{"2ee1d41a53727df12da5c184308426d30e1b81d3d502d0eec9dc67e33fe89a32d973692c764398f7e96748f4bf840a50c5ce46b745247d5cde4ef9bd89b759d3738cb22357cc5025fa210fc7",
			"openmb golden plaintext: sealed with AES-128-GCM"},
		{"6da92691de0dc64b0ff43d1e9444612f94cef4052debcc19bf18d090", ""},
	} {
		sealed, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Open(sealed)
		if err != nil || string(got) != g.want {
			t.Fatalf("golden blob: got %q, %v; want %q", got, err, g.want)
		}
	}
}

// TestSealRejectsEveryCorruption: any single flipped byte (nonce, ciphertext or
// tag), any truncation, and any other secret fail authentication and return
// no plaintext.
func TestSealRejectsEveryCorruption(t *testing.T) {
	s := NewSealer("k")
	pt := bytes.Repeat([]byte("per-flow state "), 14)[:202]
	sealed := s.Seal(pt)
	reject := func(what string, blob []byte) {
		t.Helper()
		if got, err := s.Open(blob); err != ErrSealOpen || got != nil {
			t.Fatalf("%s: Open returned %d bytes, %v; want nil, ErrSealOpen", what, len(got), err)
		}
	}
	for i := range sealed {
		mut := append([]byte(nil), sealed...)
		mut[i] ^= 0x01
		reject(fmt.Sprintf("byte %d flipped", i), mut)
	}
	for n := 0; n < len(sealed); n++ {
		reject(fmt.Sprintf("truncated to %d", n), sealed[:n])
	}
	if got, err := NewSealer("another").Open(sealed); err != ErrSealOpen || got != nil {
		t.Fatalf("other secret: Open returned %d bytes, %v", len(got), err)
	}
	if got, err := s.Open(sealed); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("the untouched blob must still open: %v", err)
	}
}

// TestSealerConcurrentUse hammers one Sealer from several goroutines; under
// -race it is the check that the shared AEAD and the pooled FrameSealers are
// used safely.
func TestSealerConcurrentUse(t *testing.T) {
	s := NewSealer("shared")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pt := bytes.Repeat([]byte{byte(g)}, 100+g*17)
			for i := 0; i < 10000; i++ {
				got, err := s.Open(s.Seal(pt))
				if err != nil || !bytes.Equal(got, pt) {
					t.Errorf("goroutine %d iteration %d: round trip failed: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// nextNonce returns n plus 1 as a 96-bit big-endian number.
func nextNonce(n [sealNonceLen]byte) [sealNonceLen]byte {
	hi, lo := binary.BigEndian.Uint32(n[:4]), binary.BigEndian.Uint64(n[4:])
	if lo++; lo == 0 {
		hi++
	}
	binary.BigEndian.PutUint32(n[:4], hi)
	binary.BigEndian.PutUint64(n[4:], lo)
	return n
}

// TestFrameSealerCounters pins the nonce rule of one sealing run: every
// blob is a standalone blob for the nonce it carries, each nonce is the
// previous one plus 1 over 96 bits, no nonce repeats across two runs, blobs
// open in place in any order, and sealing after an Open starts afresh.
func TestFrameSealerCounters(t *testing.T) {
	const secret = "openmb-frame"
	s := NewSealer(secret)
	rng := mrand.New(mrand.NewSource(40))
	sizes := append(sealSizes(rng), 0, 0, 16, 0, 17, 4096, 0)
	seal := func(f *FrameSealer) (blobs, pts [][]byte) {
		for _, n := range sizes {
			pt := make([]byte, n)
			rng.Read(pt)
			blobs = append(blobs, f.AppendSeal(nil, pt))
			pts = append(pts, pt)
		}
		return blobs, pts
	}
	f, g := s.Frame(), s.Frame()
	defer f.Release()
	defer g.Release()
	blobs, pts := seal(f)
	blobs2, pts2 := seal(g)

	used := make(map[[sealNonceLen]byte]string)
	for run, bs := range map[string][][]byte{"first": blobs, "second": blobs2} {
		ps := map[string][][]byte{"first": pts, "second": pts2}[run]
		var next [sealNonceLen]byte
		for i, b := range bs {
			if got, err := refOpen(secret, b); err != nil || !bytes.Equal(got, ps[i]) {
				t.Fatalf("%s run, blob %d (%d B) does not open alone: %v", run, i, len(ps[i]), err)
			}
			if want := refSeal(secret, b[:sealNonceLen], ps[i]); !bytes.Equal(b, want) {
				t.Fatalf("%s run, blob %d (%d B) differs from the reference for its nonce", run, i, len(ps[i]))
			}
			nonce := [sealNonceLen]byte(b[:sealNonceLen])
			if i > 0 && nonce != next {
				t.Fatalf("%s run, blob %d: nonce %x, want the previous nonce plus 1, %x", run, i, nonce, next)
			}
			if other, dup := used[nonce]; dup {
				t.Fatalf("%s run, blob %d repeats a nonce of the %s run", run, i, other)
			}
			used[nonce] = run
			next = nextNonce(nonce)
		}
	}

	// The increment carries across all 96 bits, and wraps.
	for _, c := range []struct{ at, want string }{
		{"00000001ffffffffffffffff", "000000020000000000000000"},
		{"0000000000000000000000ff", "000000000000000000000100"},
		{"ffffffffffffffffffffffff", "000000000000000000000000"},
	} {
		h := s.Frame()
		h.AppendSeal(nil, nil)
		hex.Decode(h.nonce[:], []byte(c.at))
		if n := h.AppendSeal(nil, pts[1])[:sealNonceLen]; hex.EncodeToString(n) != c.at {
			t.Fatalf("sealed at nonce %x, want %s", n, c.at)
		}
		if n := h.AppendSeal(nil, pts[1])[:sealNonceLen]; hex.EncodeToString(n) != c.want {
			t.Fatalf("after %s: nonce %x, want %s", c.at, n, c.want)
		}
		h.Release()
	}

	// One opener, in place, over copies: in order, reversed, and
	// interleaved with the second run.
	type blob struct{ sealed, pt []byte }
	var inOrder, reversed, interleaved []blob
	for i := range blobs {
		inOrder = append(inOrder, blob{blobs[i], pts[i]})
		reversed = append(reversed, blob{blobs[len(blobs)-1-i], pts[len(blobs)-1-i]})
		interleaved = append(interleaved, blob{blobs[i], pts[i]}, blob{blobs2[i], pts2[i]})
	}
	o := s.Frame()
	defer o.Release()
	for _, run := range []struct {
		name  string
		blobs []blob
	}{{"in order", inOrder}, {"reversed", reversed}, {"interleaved", interleaved}} {
		for i, b := range run.blobs {
			sealed := bytes.Clone(b.sealed)
			got, err := o.Open(sealed)
			if err != nil || !bytes.Equal(got, b.pt) {
				t.Fatalf("%s: blob %d (%d B) does not open: %v", run.name, i, len(b.pt), err)
			}
			if len(got) > 0 && &got[0] != &sealed[sealNonceLen] {
				t.Fatalf("%s: blob %d was not opened in place", run.name, i)
			}
		}
	}
	// A corrupt blob fails, untouched, and the opener goes on past it.
	bad := bytes.Clone(blobs[1])
	bad[len(bad)-1] ^= 1
	want := bytes.Clone(bad)
	if got, err := o.Open(bad); err != ErrSealOpen || got != nil || !bytes.Equal(bad, want) {
		t.Fatalf("corrupt blob: Open returned %d bytes, %v, blob changed %v", len(got), err, !bytes.Equal(bad, want))
	}
	for i := range blobs[:3] {
		if got, err := o.Open(bytes.Clone(blobs[i])); err != nil || !bytes.Equal(got, pts[i]) {
			t.Fatalf("after a corrupt blob: blob %d does not open: %v", i, err)
		}
	}
	// A sealer that opens a blob seals its next blob under a fresh random
	// nonce, not the one its own run would go on with.
	last := [sealNonceLen]byte(blobs[len(blobs)-1][:sealNonceLen])
	if _, err := f.Open(bytes.Clone(blobs2[0])); err != nil {
		t.Fatal(err)
	}
	if n := [sealNonceLen]byte(f.AppendSeal(nil, pts[1])[:sealNonceLen]); n == nextNonce(last) {
		t.Fatal("sealing after an Open continued the sealer's run")
	}
}

// TestSealAllocBudget pins the per-call allocations at the benchmark's chunk
// size: Seal and Open allocate their output and nothing that is constant
// per sealer; a FrameSealer sealing into a slab with room, and opening in
// place, allocates nothing per blob after its first.
func TestSealAllocBudget(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := NewSealer("k")
	pt := make([]byte, 202)
	sealed := s.Seal(pt)
	if n := testing.AllocsPerRun(1000, func() { sealSink = s.Seal(pt) }); n > 1 {
		t.Errorf("Seal(202 B): %.1f allocs, want <= 1", n)
	}
	if n := testing.AllocsPerRun(1000, func() { sealSink, _ = s.Open(sealed) }); n > 1 {
		t.Errorf("Open(202 B): %.1f allocs, want <= 1", n)
	}

	const runs = 1000
	f := s.Frame()
	defer f.Release()
	slab := make([]byte, 0, 4*(len(pt)+sealOverhead))
	if n := testing.AllocsPerRun(runs, func() { sealSink = f.AppendSeal(slab[:0], pt) }); n != 0 {
		t.Errorf("FrameSealer.AppendSeal(202 B) into a slab with room: %.2f allocs per blob, want 0", n)
	}
	blobs := make([][]byte, runs+1) // AllocsPerRun calls once more to warm up
	for i := range blobs {
		blobs[i] = f.AppendSeal(nil, pt)
	}
	o := s.Frame()
	defer o.Release()
	var i int
	var err error
	n := testing.AllocsPerRun(runs, func() {
		if sealSink, err = o.Open(blobs[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if n != 0 {
		t.Errorf("FrameSealer.Open(202 B) in place: %.2f allocs per blob, want 0", n)
	}
}

// FuzzSealOpen feeds arbitrary bytes to both openers, as a put feeds wire
// bytes to FrameSealer.Open. Neither may panic, and each must return
// ErrSealOpen, leaving its input untouched, unless the bytes are a blob
// sealed under the key — which the reference decides — and then both must
// return its plaintext. The seeds are such blobs, sealed by one run.
func FuzzSealOpen(f *testing.F) {
	const secret = "openmb-fuzz"
	s := NewSealer(secret)
	fs := s.Frame()
	for _, pt := range []string{"", "x", "per-flow state", string(make([]byte, 202)), string(bytes.Repeat([]byte("conn"), 300))} {
		f.Add(fs.AppendSeal(nil, []byte(pt)))
	}
	fs.Release()
	f.Add([]byte{})
	f.Add(make([]byte, sealOverhead))
	f.Fuzz(func(t *testing.T, b []byte) {
		want, refErr := refOpen(secret, b)
		in := bytes.Clone(b)
		got, err := s.Open(in)
		if !bytes.Equal(in, b) {
			t.Fatal("Sealer.Open changed its input")
		}
		o := s.Frame()
		defer o.Release()
		got2, err2 := o.Open(in)
		if refErr != nil {
			if err != ErrSealOpen || got != nil || err2 != ErrSealOpen || got2 != nil {
				t.Fatalf("not a sealed blob: Sealer.Open %d B, %v; FrameSealer.Open %d B, %v", len(got), err, len(got2), err2)
			}
			if !bytes.Equal(in, b) {
				t.Fatal("FrameSealer.Open changed a blob that failed")
			}
			return
		}
		if err != nil || !bytes.Equal(got, want) || err2 != nil || !bytes.Equal(got2, want) {
			t.Fatalf("a sealed blob: Sealer.Open %v, FrameSealer.Open %v, or a plaintext differs", err, err2)
		}
	})
}

var sealSink []byte

func BenchmarkSealOpen(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"202B", 202}, {"4KiB", 4096}} {
		b.Run(size.name, func(b *testing.B) {
			s := NewSealer("k")
			pt := make([]byte, size.n)
			b.SetBytes(int64(size.n))
			b.ReportAllocs()
			for b.Loop() {
				out, err := s.Open(s.Seal(pt))
				if err != nil {
					b.Fatal(err)
				}
				sealSink = out
			}
		})
	}
	// frame32 is one 32-chunk frame of 202 B blobs as the move path runs
	// it: sealed into one slab by a get's FrameSealer, opened in place by a
	// put's.
	b.Run("frame32", func(b *testing.B) {
		const chunks, n = 32, 202
		s := NewSealer("k")
		pt := make([]byte, n)
		slab := make([]byte, 0, chunks*(n+sealOverhead))
		b.SetBytes(chunks * n)
		b.ReportAllocs()
		for b.Loop() {
			seal, open := s.Frame(), s.Frame()
			slab = slab[:0]
			for range chunks {
				slab = seal.AppendSeal(slab, pt)
			}
			for off := 0; off < len(slab); off += n + sealOverhead {
				out, err := open.Open(slab[off : off+n+sealOverhead])
				if err != nil {
					b.Fatal(err)
				}
				sealSink = out
			}
			seal.Release()
			open.Release()
		}
	})
}

func TestConfigTreeSetGet(t *testing.T) {
	tr := NewConfigTree()
	if err := tr.Set("rules/http/0", []string{"alert tcp any any -> any 80"}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Set("NumCaches", []string{"2"}); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Get("rules/http/0")
	if err != nil || len(got) != 1 || got[0] != "alert tcp any any -> any 80" {
		t.Fatalf("get: %v %v", got, err)
	}
	if _, err := tr.Get("rules/http/1"); err != ErrNoSuchKey {
		t.Fatalf("want ErrNoSuchKey, got %v", err)
	}
	if _, err := tr.Get("rules/http"); err != ErrNoSuchKey {
		t.Fatalf("interior node get should fail, got %v", err)
	}
}

func TestConfigTreeOrderedValues(t *testing.T) {
	tr := NewConfigTree()
	vals := []string{"rule-c", "rule-a", "rule-b"}
	if err := tr.Set("rules", vals); err != nil {
		t.Fatal(err)
	}
	got, _ := tr.Get("rules")
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("order not preserved: %v", got)
		}
	}
}

func TestConfigTreeLeafInteriorConflicts(t *testing.T) {
	tr := NewConfigTree()
	if err := tr.Set("a/b", []string{"1"}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Set("a", []string{"x"}); err != ErrKeyIsInterior {
		t.Fatalf("want ErrKeyIsInterior, got %v", err)
	}
	if err := tr.Set("a/b/c", []string{"x"}); err == nil {
		t.Fatal("value key must not gain sub-keys")
	}
}

func TestConfigTreeDel(t *testing.T) {
	tr := NewConfigTree()
	tr.Set("a/b", []string{"1"})
	tr.Set("a/c", []string{"2"})
	if err := tr.Del("a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Get("a/b"); err != ErrNoSuchKey {
		t.Fatal("deleted key still present")
	}
	if _, err := tr.Get("a/c"); err != nil {
		t.Fatal("sibling was deleted")
	}
	if err := tr.Del("a"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Del("missing"); err != ErrNoSuchKey {
		t.Fatalf("want ErrNoSuchKey, got %v", err)
	}
	// Wildcard delete clears everything.
	tr.Set("x", []string{"1"})
	tr.Del("*")
	if entries, _ := tr.Export(""); len(entries) != 0 {
		t.Fatal("wildcard delete left entries")
	}
}

func TestConfigTreeExportImportClone(t *testing.T) {
	src := NewConfigTree()
	src.Set("rules/0", []string{"r0"})
	src.Set("rules/1", []string{"r1a", "r1b"})
	src.Set("params/CacheSize", []string{"500MB"})
	entries, err := src.Export("*")
	if err != nil {
		t.Fatal(err)
	}
	dst := NewConfigTree()
	if err := dst.Import(entries); err != nil {
		t.Fatal(err)
	}
	if !src.Equal(dst) {
		t.Fatal("clone differs from source")
	}
	// Subtree export.
	sub, err := src.Export("rules")
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 2 {
		t.Fatalf("want 2 rule leaves, got %d", len(sub))
	}
	if _, err := src.Export("missing"); err != ErrNoSuchKey {
		t.Fatalf("want ErrNoSuchKey, got %v", err)
	}
}

func TestConfigTreeVersionAndWatch(t *testing.T) {
	tr := NewConfigTree()
	var paths []string
	tr.Watch(func(p string) { paths = append(paths, p) })
	v0 := tr.Version()
	tr.Set("a", []string{"1"})
	tr.Set("b", []string{"2"})
	tr.Del("a")
	if tr.Version() != v0+3 {
		t.Fatalf("version: got %d want %d", tr.Version(), v0+3)
	}
	if len(paths) != 3 || paths[0] != "a" || paths[2] != "a" {
		t.Fatalf("watcher calls: %v", paths)
	}
}

func TestConfigTreeEqualNegative(t *testing.T) {
	a := NewConfigTree()
	b := NewConfigTree()
	a.Set("k", []string{"1"})
	if a.Equal(b) {
		t.Fatal("unequal trees reported equal")
	}
	b.Set("k", []string{"2"})
	if a.Equal(b) {
		t.Fatal("differing values reported equal")
	}
	b.Set("k", []string{"1"})
	if !a.Equal(b) {
		t.Fatal("equal trees reported unequal")
	}
}

func TestConfigTreeImportExportProperty(t *testing.T) {
	// Export∘Import is the identity on tree contents.
	f := func(keys []string, val string) bool {
		src := NewConfigTree()
		for i, k := range keys {
			if k == "" {
				continue
			}
			// Sanitize: path segments must be non-empty and slash-free.
			seg := ""
			for _, r := range k {
				if r != '/' && r != '*' {
					seg += string(r)
				}
			}
			if seg == "" {
				continue
			}
			if err := src.Set(seg, []string{val, k, string(rune('a' + i%26))}); err != nil {
				// Leaf/interior conflicts are legal outcomes.
				continue
			}
		}
		entries, err := src.Export("")
		if err != nil {
			return false
		}
		dst := NewConfigTree()
		if err := dst.Import(entries); err != nil {
			return false
		}
		return src.Equal(dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigTreeConcurrency(t *testing.T) {
	tr := NewConfigTree()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			tr.Set("hot", []string{"v"})
		}
	}()
	for i := 0; i < 500; i++ {
		tr.Get("hot")
		tr.Export("")
	}
	<-done
}

func BenchmarkConfigExport(b *testing.B) {
	tr := NewConfigTree()
	for i := 0; i < 100; i++ {
		tr.Set("rules/"+string(rune('a'+i%26))+"/"+string(rune('0'+i%10)), []string{"v"})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Export(""); err != nil {
			b.Fatal(err)
		}
	}
}

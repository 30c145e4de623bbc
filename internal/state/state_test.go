package state

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
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
	// Two seals of the same plaintext differ (fresh IV).
	if bytes.Equal(sealed, s.Seal(pt)) {
		t.Fatal("sealing is deterministic; IV reuse")
	}
}

// refSeal and refOpen are Seal and Open as they stood before the key schedule
// and the HMAC states were cached: every primitive built per call, the IV
// supplied by the caller. They define the sealed format; the live code must
// produce and accept exactly these bytes.
func refSeal(secret string, iv, plaintext []byte) []byte {
	encKey := sha256.Sum256([]byte("openmb-enc:" + secret))
	macKey := sha256.Sum256([]byte("openmb-mac:" + secret))
	out := make([]byte, sealIVLen+len(plaintext)+sealTagLen)
	copy(out, iv)
	block, err := aes.NewCipher(encKey[:16])
	if err != nil {
		panic(err)
	}
	cipher.NewCTR(block, out[:sealIVLen]).XORKeyStream(out[sealIVLen:sealIVLen+len(plaintext)], plaintext)
	mac := hmac.New(sha256.New, macKey[:])
	mac.Write(out[:sealIVLen+len(plaintext)])
	copy(out[sealIVLen+len(plaintext):], mac.Sum(nil))
	return out
}

func refOpen(secret string, sealed []byte) ([]byte, error) {
	encKey := sha256.Sum256([]byte("openmb-enc:" + secret))
	macKey := sha256.Sum256([]byte("openmb-mac:" + secret))
	if len(sealed) < sealIVLen+sealTagLen {
		return nil, ErrSealOpen
	}
	body := sealed[:len(sealed)-sealTagLen]
	mac := hmac.New(sha256.New, macKey[:])
	mac.Write(body)
	if !hmac.Equal(sealed[len(body):], mac.Sum(nil)) {
		return nil, ErrSealOpen
	}
	block, err := aes.NewCipher(encKey[:16])
	if err != nil {
		panic(err)
	}
	pt := make([]byte, len(body)-sealIVLen)
	cipher.NewCTR(block, body[:sealIVLen]).XORKeyStream(pt, body[sealIVLen:])
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
// reference and yield, for the IV they carry, exactly the reference's bytes;
// blobs sealed by the reference open under the live code.
func TestSealMatchesReference(t *testing.T) {
	const secret = "openmb-mbtype-counter"
	s := NewSealer(secret)
	rng := mrand.New(mrand.NewSource(14))
	for _, n := range sealSizes(rng) {
		pt := make([]byte, n)
		rng.Read(pt)
		sealed := s.Seal(pt)
		if len(sealed) != n+sealIVLen+sealTagLen {
			t.Fatalf("size %d: sealed to %d bytes, want %d", n, len(sealed), n+sealIVLen+sealTagLen)
		}
		if want := refSeal(secret, sealed[:sealIVLen], pt); !bytes.Equal(sealed, want) {
			t.Fatalf("size %d: sealed bytes differ from the reference for the same IV", n)
		}
		if got, err := refOpen(secret, sealed); err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("size %d: reference cannot open a live blob: %v", n, err)
		}
		iv := make([]byte, sealIVLen)
		rng.Read(iv)
		if got, err := s.Open(refSeal(secret, iv, pt)); err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("size %d: live code cannot open a reference blob: %v", n, err)
		}
	}
}

// TestSealGoldenFromParent opens blobs sealed by the commit before the sealer
// was rewritten (9d5d3ba): the wire format did not move.
func TestSealGoldenFromParent(t *testing.T) {
	s := NewSealer("openmb-golden")
	for _, g := range []struct{ hex, want string }{
		{"8f4f97338bc77f3b4d35fc3b01db620134f7bb482985d24bf697a57318a036d724a11c322863a4d1b8c5dd78b104d7c900d0ce02be1d1e96216e6c156401328e8340c91e7801787595410481ad8703c3d5e09fce3487a5c887c6",
			"openmb golden plaintext: sealed at 9d5d3ba"},
		{"4a4d72e27b02021a164f23c9af4af313fca8ab46c450933c577527e8939bbfcb27f966157a22dd7e775f4f63306928e0", ""},
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

// TestSealRejectsEveryCorruption: any single flipped byte (IV, ciphertext or
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
// -race it is the check that the shared key schedule and the pooled HMAC
// states are used safely.
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

// TestSealAllocBudget pins the per-call allocations at the benchmark's chunk
// size: the output and the CTR stream, nothing that is constant per sealer.
func TestSealAllocBudget(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := NewSealer("k")
	pt := make([]byte, 202)
	sealed := s.Seal(pt)
	if n := testing.AllocsPerRun(1000, func() { sealSink = s.Seal(pt) }); n > 2 {
		t.Errorf("Seal(202 B): %.1f allocs, want <= 2", n)
	}
	if n := testing.AllocsPerRun(1000, func() { sealSink, _ = s.Open(sealed) }); n > 2 {
		t.Errorf("Open(202 B): %.1f allocs, want <= 2", n)
	}
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

func TestChunkSize(t *testing.T) {
	c := Chunk{Blob: make([]byte, 189)}
	if c.Size() != 202 {
		// 13-byte key + 189-byte blob = the paper's 202-byte dummy state.
		t.Fatalf("chunk size: got %d want 202", c.Size())
	}
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

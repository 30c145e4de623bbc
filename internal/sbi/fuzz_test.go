package sbi

// Native Go fuzz targets for the binary SBI codec, seeded from the
// codec-equivalence corpus (testMessages), which includes a windowed get and
// its credit and cancel frames. The binary protocol is the
// default wire format, so every frame a hostile or corrupted peer could
// deliver goes through decode: the targets assert it never panics, never
// over-allocates past the frame bound, and that every frame it does accept
// re-encodes to a stable message (decode∘encode is the identity on decoded
// messages). CI runs each target for a short -fuzztime on every push so the
// checked-in corpus executes continuously; `go test` alone runs the seeds.

import (
	"bufio"
	"bytes"
	"testing"

	"openmb/internal/packet"
	"openmb/internal/state"
)

// encodeBinary renders one message as a binary frame.
func encodeBinary(tb testing.TB, m *Message) []byte {
	tb.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	c := newBinaryCodec(bufio.NewReader(&buf), bw)
	if err := c.encode(m); err != nil {
		tb.Fatalf("seed encode: %v", err)
	}
	if err := bw.Flush(); err != nil {
		tb.Fatalf("seed flush: %v", err)
	}
	return buf.Bytes()
}

// decodeBinary parses one binary frame from raw bytes.
func decodeBinary(raw []byte) (*Message, error) {
	c := newBinaryCodec(bufio.NewReader(bytes.NewReader(raw)), nil)
	return c.decode()
}

// seedCorpus adds every equivalence-corpus message's binary frame (the
// messages with non-IPv4 keys cannot encode and are skipped).
func seedCorpus(f *testing.F) {
	for _, frame := range seedFrames() {
		f.Add(frame)
	}
}

// seedFrames renders every encodable equivalence-corpus message as a binary
// frame (the messages with non-IPv4 keys cannot encode and are skipped).
func seedFrames() [][]byte {
	var frames [][]byte
	for _, m := range testMessages() {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		c := newBinaryCodec(bufio.NewReader(&buf), bw)
		if err := c.encode(m); err != nil {
			continue
		}
		if err := bw.Flush(); err != nil {
			continue
		}
		frames = append(frames, buf.Bytes())
	}
	return frames
}

// FuzzBinaryRoundTrip: any frame the decoder accepts must re-encode and
// re-decode to the identical message — the stability property the move
// path relies on when they forward decoded frames onward.
func FuzzBinaryRoundTrip(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := decodeBinary(raw)
		if err != nil {
			return // rejection is fine; panics/hangs are what we hunt
		}
		reencoded := encodeBinary(t, m)
		m2, err := decodeBinary(reencoded)
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if !sameMessage(m, m2) {
			t.Fatalf("round trip unstable:\n first:  %+v\n second: %+v", m, m2)
		}
		// Every key the decoder hands out has a table form, and that form
		// is the same 13 bytes.
		eachKey(m, func(k packet.FlowKey) {
			id, ok := k.ID()
			wire := k.AppendBinary(nil)
			if back, err := packet.DecodeFlowID(wire); !ok || err != nil || back != id || !bytes.Equal(id.AppendBinary(nil), wire) {
				t.Fatalf("decoded key %v: ID %v ok=%v, from its wire form %v (%v)", k, id, ok, back, err)
			}
		})
	})
}

// eachKey visits every flow key a message carries.
func eachKey(m *Message, visit func(packet.FlowKey)) {
	m.EachChunk(func(c *state.Chunk) { visit(c.Key) })
	m.EachEvent(func(ev *Event) { visit(ev.Key) })
}

// FuzzBinaryRejectsCorrupt: truncations and bit flips of valid frames must
// surface as decode errors (or decode to some message), never as panics,
// hangs, or reads past the frame. The fuzz input picks the seed frame, a
// cut point, and a bit to flip.
func FuzzBinaryRejectsCorrupt(f *testing.F) {
	seeds := seedFrames()
	for i := range seeds {
		f.Add(i, 4, 0)
		f.Add(i, len(seeds[i])/2, 13)
	}
	f.Fuzz(func(t *testing.T, seed, cut, flip int) {
		if len(seeds) == 0 {
			t.Skip()
		}
		frame := append([]byte(nil), seeds[((seed%len(seeds))+len(seeds))%len(seeds)]...)

		// Truncation: every prefix must error (a cut frame is never a
		// valid shorter frame, because the length prefix still claims
		// the full body) — except cutting at 0, which is a clean EOF.
		if cut > 0 && cut < len(frame) {
			if m, err := decodeBinary(frame[:cut]); err == nil {
				t.Fatalf("truncated frame (%d/%d bytes) accepted: %+v", cut, len(frame), m)
			}
		}

		// Bit flip: decode must not panic; acceptance is allowed (many
		// flips land in payload bytes), but an accepted frame must still
		// round-trip stably.
		if flip >= 0 && flip/8 < len(frame) {
			frame[flip/8] ^= 1 << (flip % 8)
		}
		m, err := decodeBinary(frame)
		if err != nil {
			return
		}
		reencoded := encodeBinary(t, m)
		if _, err := decodeBinary(reencoded); err != nil {
			t.Fatalf("accepted corrupt frame did not re-decode: %v", err)
		}
	})
}

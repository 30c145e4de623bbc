package mbox_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"openmb/internal/mbox"
	"openmb/internal/mbox/mbtest"
	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/state"
)

// TestSealedStreamsOpenAlone: a get seals its chunks as one run of nonces,
// yet every blob it exports opens alone under a fresh one-blob Sealer.Open
// and carries a nonce no other blob of this get or the next one carries; and
// a put frame installs every chunk whatever the order of its blobs, even
// when they come from two gets.
func TestSealedStreamsOpenAlone(t *testing.T) {
	const flows, batch = 100, 32 // frames of 32, 32, 32, 4
	for _, compressed := range []bool{false, true} {
		t.Run(map[bool]string{false: "plain", true: "compressed"}[compressed], func(t *testing.T) {
			src := mbtest.NewCounterLogic(202)
			h := newHarness(t, src)
			src.Preload(flows)
			get := func(id uint64) [][]state.Chunk {
				t.Helper()
				h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: id, Op: sbi.OpGetSupportPerflow, Match: packet.MatchAll, Batch: batch, Compressed: compressed})
				var frames [][]state.Chunk
				for {
					m := h.reply(t)
					switch {
					case m.ID != id:
						t.Fatalf("unexpected id %d (want %d): %+v", m.ID, id, m)
					case m.Type == sbi.MsgError:
						t.Fatalf("get failed: %s", m.Error)
					case m.Type == sbi.MsgDone:
						if m.Count != flows || len(frames) != 4 || len(frames[2]) != batch {
							t.Fatalf("get %d: %d chunks in %d frames, want %d in 4", id, m.Count, len(frames), flows)
						}
						return frames
					case m.Chunk != nil:
						frames = append(frames, []state.Chunk{*m.Chunk})
					default:
						frames = append(frames, m.Chunks)
					}
				}
			}
			gets := [2][][]state.Chunk{get(1), get(2)}

			// Every preloaded flow's record: a count of 1, padded to 202 B.
			plain := binary.BigEndian.AppendUint64(make([]byte, 0, 202), 1)[:202]
			opener := state.NewSealer("openmb-mbtype-counter")
			nonces := make(map[string]uint64)
			for g, frames := range gets {
				for _, frame := range frames {
					for _, c := range frame {
						nonce := string(c.Blob[:12])
						if prev, dup := nonces[nonce]; dup {
							t.Fatalf("get %d repeats a nonce of get %d", g+1, prev)
						}
						nonces[nonce] = uint64(g + 1)
						pt, err := opener.Open(c.Blob)
						if err == nil && compressed {
							pt, err = mbox.InflateForTest(pt)
						}
						if err != nil || !bytes.Equal(pt, plain) {
							t.Fatalf("get %d: a blob does not open alone to its record: %v", g+1, err)
						}
					}
				}
			}

			dst := mbtest.NewCounterLogic(202)
			h2 := newHarness(t, dst)
			put := func(id uint64, chunks []state.Chunk) {
				t.Helper()
				m := &sbi.Message{Type: sbi.MsgRequest, ID: id, Op: sbi.OpPutSupportPerflow, Compressed: compressed}
				m.SetChunks(chunks)
				h2.send(t, m)
				if r := h2.reply(t); r.Type != sbi.MsgDone || r.Count != len(chunks) {
					t.Fatalf("put %d: %+v", id, r)
				}
			}
			var want []packet.FlowKey
			// Frame 0 of the first get, its blobs reversed.
			var permuted []state.Chunk
			for i := len(gets[0][0]) - 1; i >= 0; i-- {
				permuted = append(permuted, gets[0][0][i])
			}
			put(10, permuted)
			// Frame 1 of the first get and frame 2 of the second,
			// interleaved: distinct keys from two streams.
			var mixed []state.Chunk
			for i := range batch {
				mixed = append(mixed, gets[0][1][i], gets[1][2][i])
			}
			put(11, mixed)
			// The rest of the first get as it was framed.
			put(12, gets[0][3])
			for _, frame := range [][]state.Chunk{permuted, mixed, gets[0][3]} {
				for _, c := range frame {
					want = append(want, c.Key)
				}
			}
			if got := dst.Flows(); got != len(want) {
				t.Fatalf("destination holds %d flows, want %d", got, len(want))
			}
			for _, k := range want {
				if n := dst.Count(k); n != 1 {
					t.Fatalf("flow %s installed with count %d, want 1", k, n)
				}
			}
		})
	}
}

package mbox

import "openmb/internal/packet"

// Test hooks exposing internals to the external test package.

// SetActiveOpsForTest adjusts the active-operation counter, letting tests
// exercise the during-operation latency bucket without a live southbound
// call.
func SetActiveOpsForTest(rt *Runtime, delta int32) { rt.activeOps.Add(delta) }

// DeflateForTest exposes the wire compression helper.
func DeflateForTest(b []byte) []byte { return deflate(b) }

// InflateForTest exposes the wire decompression helper.
func InflateForTest(b []byte) ([]byte, error) { return inflate(b) }

// MarkCountForTest returns the mark count Touch reads without a lock next to
// the size of the two mark tables it stands for; they must always agree.
func MarkCountForTest(rt *Runtime) (count int64, marks int) {
	rt.marksMu.Lock()
	defer rt.marksMu.Unlock()
	marks = len(rt.sharedMoved)
	for _, set := range rt.marks {
		marks += set.n
	}
	return rt.markCount.Load(), marks
}

// EnqueueReplayForTest queues p as a replayed reprocess packet, as a
// reprocess frame from the controller would, so tests can replay a pooled
// packet (the southbound decodes replays to the heap).
func EnqueueReplayForTest(rt *Runtime, p *packet.Packet, shared bool) { rt.enqueueReplay(p, shared) }

// CreditPeakForTest returns the most chunk frames any get of rt has had sent
// beyond the credit the controller had returned.
func CreditPeakForTest(rt *Runtime) int { return int(rt.creditPeak.Load()) }

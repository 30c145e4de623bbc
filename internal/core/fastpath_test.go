package core_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"openmb/internal/core"
	"openmb/internal/mbox"
	"openmb/internal/mbox/mbtest"
	"openmb/internal/packet"
	"openmb/internal/racedetect"
	"openmb/internal/sbi"
)

// fastRig builds a controller plus two counter middleboxes speaking the
// given codec, with the given chunk batch size.
func fastRig(t *testing.T, codec sbi.Codec, batch int) *rig {
	t.Helper()
	r := &rig{
		ctrl: core.NewController(core.Options{QuietPeriod: 60 * time.Millisecond, BatchSize: batch}),
		tr:   sbi.NewMemTransport(),
		src:  mbtest.NewCounterLogic(16),
		dst:  mbtest.NewCounterLogic(16),
	}
	if err := r.ctrl.Serve(r.tr, "ctrl"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.ctrl.Close)
	attach := func(name string, logic mbox.Logic) *mbox.Runtime {
		rt := mbox.New(name, logic, mbox.Options{Codec: codec})
		t.Cleanup(rt.Close)
		if err := rt.Connect(r.tr, "ctrl"); err != nil {
			t.Fatal(err)
		}
		if err := r.ctrl.WaitForMB(name, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		return rt
	}
	r.srcRT = attach("src", r.src)
	r.dstRT = attach("dst", r.dst)
	return r
}

// TestMoveAcrossCodecsAndBatches verifies the full move pipeline — get
// stream, batched puts, delete-at-source — preserves every flow and count
// for each codec x batch-size combination, including batch sizes larger
// than the resident state.
func TestMoveAcrossCodecsAndBatches(t *testing.T) {
	const flows = 257 // not a multiple of any batch size: exercises partial final frames
	for _, codec := range []sbi.Codec{sbi.CodecJSON, sbi.CodecBinary} {
		for _, batch := range []int{1, 7, 64, 1024} {
			t.Run(fmt.Sprintf("%s/batch%d", codec, batch), func(t *testing.T) {
				r := fastRig(t, codec, batch)
				r.src.Preload(flows)
				if err := r.ctrl.MoveInternal("src", "dst", packet.MatchAll); err != nil {
					t.Fatal(err)
				}
				if got := r.dst.Flows(); got != flows {
					t.Fatalf("destination has %d flows, want %d", got, flows)
				}
				if got := r.dst.SumCounts(); got != flows {
					t.Fatalf("destination count sum %d, want %d", got, flows)
				}
				if !r.ctrl.WaitTxns(5 * time.Second) {
					t.Fatal("transactions did not complete")
				}
				if got := r.src.Flows(); got != 0 {
					t.Fatalf("source still has %d flows after move", got)
				}
				m := r.ctrl.Metrics()
				if m.ChunksMoved != flows {
					t.Fatalf("metrics counted %d chunks, want %d", m.ChunksMoved, flows)
				}
			})
		}
	}
}

// TestMoveWithEventsBatchedBinary runs a move under packet load with the
// binary codec and batching: reprocess events raised mid-move must still be
// buffered against their key's put and replayed at the destination, so no
// packet count is lost (the §4.2.1 loss-freedom argument, on the fast path).
func TestMoveWithEventsBatchedBinary(t *testing.T) {
	const flows = 120
	r := fastRig(t, sbi.CodecBinary, 16)
	r.src.Preload(flows)

	stop := make(chan struct{})
	done := make(chan uint64, 1)
	go func() {
		var injected uint64
		for {
			select {
			case <-stop:
				done <- injected
				return
			default:
			}
			r.srcRT.HandlePacket(mbtest.PacketForFlow(int(injected) % flows))
			injected++
			time.Sleep(50 * time.Microsecond)
		}
	}()

	if err := r.ctrl.MoveInternal("src", "dst", packet.MatchAll); err != nil {
		t.Fatal(err)
	}
	close(stop)
	injected := <-done
	r.srcRT.Drain(5 * time.Second)
	if !r.ctrl.WaitTxns(10 * time.Second) {
		t.Fatal("transactions did not complete")
	}
	r.dstRT.Drain(5 * time.Second)

	// Conservation: preloaded counts plus every injected packet that the
	// source accepted must be accounted for at the destination (injected
	// packets land either in the moved blob or in a replayed event).
	processed := r.srcRT.Metrics().Processed
	want := uint64(flows) + processed
	if got := r.dst.SumCounts(); got != want {
		t.Fatalf("destination sum %d, want %d (injected %d, processed %d)", got, want, injected, processed)
	}
}

// moveAllocBudget is the move pipeline's written budget, in heap allocations
// per 202-byte chunk moved, across every layer in the process: MB export and
// seal, codec, controller registration and put path, MB open and import,
// ACK. docs/ARCHITECTURE.md ("Move path: the per-chunk budget") has the
// per-layer table behind it.
const moveAllocBudget = 12

// moveBytesBudget is the same budget in heap bytes allocated per chunk moved
// (the same runs' TotalAlloc): the measured value plus 20 %.
const moveBytesBudget = 3400

// budgetRig is the benchmark's move-idle rig at test scale: a controller and
// two CounterLogic(202) runtimes over MemTransport, default sealer, binary
// codec, batch 32.
func budgetRig(t *testing.T, chunks int) (*rig, func() (allocs, bytes float64)) {
	r := &rig{
		ctrl: core.NewController(core.Options{QuietPeriod: 10 * time.Millisecond, BatchSize: 32}),
		tr:   sbi.NewMemTransport(),
		src:  mbtest.NewCounterLogic(202),
		dst:  mbtest.NewCounterLogic(202),
	}
	if err := r.ctrl.Serve(r.tr, "ctrl"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.ctrl.Close)
	attach := func(name string, logic mbox.Logic) *mbox.Runtime {
		rt := mbox.New(name, logic, mbox.Options{Codec: sbi.CodecBinary})
		t.Cleanup(rt.Close)
		if err := rt.Connect(r.tr, "ctrl"); err != nil {
			t.Fatal(err)
		}
		if err := r.ctrl.WaitForMB(name, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		return rt
	}
	r.srcRT, r.dstRT = attach("src", r.src), attach("dst", r.dst)
	r.src.Preload(chunks)
	at := [2]string{"src", "dst"}
	logics := [2]*mbtest.CounterLogic{r.src, r.dst}
	// move moves everything to the other middlebox, checks exact
	// conservation, and returns the allocations the whole process made and
	// the bytes they came to.
	move := func() (allocs, bytes float64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := r.ctrl.MoveInternal(at[0], at[1], packet.MatchAll); err != nil {
			t.Fatal(err)
		}
		if !r.ctrl.WaitTxns(10 * time.Second) {
			t.Fatal("transaction did not settle")
		}
		runtime.ReadMemStats(&after)
		if got, left, sum := logics[1].Flows(), logics[0].Flows(), logics[1].SumCounts(); got != chunks || left != 0 || sum != uint64(chunks) {
			t.Fatalf("move broke conservation: destination %d flows sum %d (want %d, %d), source %d left", got, sum, chunks, chunks, left)
		}
		at[0], at[1] = at[1], at[0]
		logics[0], logics[1] = logics[1], logics[0]
		return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
	}
	return r, move
}

// TestMoveAllocBudget is the tier-1 guard for the per-chunk budget: a warm
// 5 000-chunk move allocates at most moveAllocBudget times per chunk, with
// every record and count conserved.
func TestMoveAllocBudget(t *testing.T) {
	const chunks = 5000
	r, move := budgetRig(t, chunks)
	move() // warm: pools, reply channels, maps at size
	move()
	var perChunk, bytesPerChunk float64
	for i := 0; i < 4; i++ {
		allocs, bytes := move()
		perChunk += allocs / chunks / 4
		bytesPerChunk += bytes / chunks / 4
	}
	if got := r.ctrl.Metrics().ChunksMoved; got != 6*chunks {
		t.Fatalf("controller counted %d chunks moved, want %d", got, 6*chunks)
	}
	t.Logf("%.1f allocations, %.0f bytes per chunk moved (budget %d, %d)", perChunk, bytesPerChunk, moveAllocBudget, moveBytesBudget)
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if perChunk > moveAllocBudget {
		t.Errorf("%.1f allocations per chunk moved, budget is %d", perChunk, moveAllocBudget)
	}
	if bytesPerChunk > moveBytesBudget {
		t.Errorf("%.0f bytes allocated per chunk moved, budget is %d", bytesPerChunk, moveBytesBudget)
	}
}

// moveFramesPerWrite bounds from below the frames the source runtime puts in
// each transport write during a 20 000-chunk binary move: the get stream's
// deferred chunk frames and the replies the serve loop coalesces share
// writes. Measured at 4.4–5.6 under -cpu 1,2,4 on a 2-CPU box; a codec that
// writes each frame through reads 1.0.
const moveFramesPerWrite = 2.5

// TestMoveCoalescesSourceWrites pins the write path at move level: on the
// move-idle rig, the source's frames per transport write stay above
// moveFramesPerWrite.
func TestMoveCoalescesSourceWrites(t *testing.T) {
	const chunks = 20000
	r, move := budgetRig(t, chunks)
	before := r.srcRT.WireCounters()
	move()
	after := r.srcRT.WireCounters()
	sent, flushes := after.Sent-before.Sent, after.Flushes-before.Flushes
	perWrite := float64(sent) / float64(flushes)
	t.Logf("source sent %d frames in %d transport writes: %.2f frames per write", sent, flushes, perWrite)
	if perWrite < moveFramesPerWrite {
		t.Errorf("%.2f frames per transport write at the source, want at least %.1f", perWrite, moveFramesPerWrite)
	}
}

// TestTransactionTablesReleasedAfterMove: nothing a move sizes outlives it.
// Once a 20 000-key move has settled, the marks at both runtimes and every
// router shard hold no storage.
func TestTransactionTablesReleasedAfterMove(t *testing.T) {
	const keys = 20000
	r := newRig(t, core.Options{QuietPeriod: 10 * time.Millisecond})
	r.src.Preload(keys)
	if err := r.ctrl.MoveInternal("src", "dst", packet.MatchAll); err != nil {
		t.Fatal(err)
	}
	if r.srcRT.MarkedKeys() != keys {
		t.Fatalf("source marks %d keys mid-transaction, want %d", r.srcRT.MarkedKeys(), keys)
	}
	if !r.ctrl.WaitTxns(10 * time.Second) {
		t.Fatal("move did not settle")
	}
	if r.dst.Flows() != keys || r.src.Flows() != 0 {
		t.Fatalf("after the move: dst %d flows, src %d", r.dst.Flows(), r.src.Flows())
	}
	for _, rt := range []*mbox.Runtime{r.srcRT, r.dstRT} {
		if n := markCapacity(rt); n != 0 {
			t.Errorf("%s mark storage keeps room for %d after the move", rt.Name(), n)
		}
	}
	if n := core.RouterTablesForTest(r.ctrl); n != 0 {
		t.Errorf("%d router shards keep their tables after the move", n)
	}
}

// markCapacity reads how many keys rt's per-flow mark sets have slots for,
// off the runtime's own fields (nothing else may touch them here: the
// runtime is idle).
func markCapacity(rt *mbox.Runtime) int {
	n := 0
	for it := reflect.ValueOf(rt).Elem().FieldByName("marks").MapRange(); it.Next(); {
		n += it.Value().Elem().FieldByName("slots").Cap()
	}
	return n
}

// TestHelloBadCodecRejected verifies the controller refuses an unknown
// codec announcement instead of silently misparsing later frames.
func TestHelloBadCodecRejected(t *testing.T) {
	tr := sbi.NewMemTransport()
	ctrl := core.NewController(core.Options{})
	if err := ctrl.Serve(tr, "ctrl"); err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	raw, err := tr.Dial("ctrl")
	if err != nil {
		t.Fatal(err)
	}
	conn := sbi.NewConn(raw)
	defer conn.Close()
	if err := conn.Send(&sbi.Message{Type: sbi.MsgHello, Name: "evil", Codec: "protobuf"}); err != nil {
		t.Fatal(err)
	}
	m, err := conn.Receive()
	if err == nil && m.Type != sbi.MsgError {
		t.Fatalf("expected error reply or close, got %+v", m)
	}
	if err := ctrl.WaitForMB("evil", 50*time.Millisecond); err == nil {
		t.Fatal("middlebox with unknown codec must not register")
	}
}

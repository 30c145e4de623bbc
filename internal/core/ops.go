package core

import (
	"fmt"
	"sync"
	"time"

	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/state"
)

// call resolves a middlebox by name and sends it one request: the shape of
// every single-middlebox northbound operation.
func (c *Controller) call(mbName string, req *sbi.Message) (*sbi.Message, error) {
	mb, err := c.mb(mbName)
	if err != nil {
		return nil, err
	}
	return mb.call(req, c.opts.CallTimeout)
}

// ReadConfig implements the northbound readConfig(SrcMB, HierarchicalKey):
// it returns the configuration leaves under path ("*" or "" for all).
func (c *Controller) ReadConfig(mbName, path string) ([]state.Entry, error) {
	m, err := c.call(mbName, &sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpGetConfig, Path: path})
	if err != nil {
		return nil, err
	}
	return m.Entries, nil
}

// WriteConfig implements writeConfig(DstMB, HierarchicalKey, values).
func (c *Controller) WriteConfig(mbName, path string, values []string) error {
	_, err := c.call(mbName, &sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpSetConfig, Path: path, Values: values})
	return err
}

// WriteConfigAll installs a full set of configuration entries on a
// middlebox: writeConfig(DstMB, "*", values), the configuration-cloning step
// of the control applications (§6).
func (c *Controller) WriteConfigAll(mbName string, entries []state.Entry) error {
	_, err := c.call(mbName, &sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpSetConfig, Path: "*", Entries: entries})
	return err
}

// DelConfig implements delConfig(DstMB, HierarchicalKey).
func (c *Controller) DelConfig(mbName, path string) error {
	_, err := c.call(mbName, &sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpDelConfig, Path: path})
	return err
}

// CloneConfig copies all configuration from one middlebox to another — the
// composition of readConfig and writeConfig the paper suggests (§5).
func (c *Controller) CloneConfig(srcMB, dstMB string) error {
	entries, err := c.ReadConfig(srcMB, "*")
	if err != nil {
		return err
	}
	return c.WriteConfigAll(dstMB, entries)
}

// Stats implements stats(SrcMB, HeaderFieldList): how much shared and
// per-flow supporting and reporting state exists for the given key.
func (c *Controller) Stats(mbName string, m packet.FieldMatch) (sbi.StatsReply, error) {
	reply, err := c.call(mbName, &sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpStats, Match: m})
	if err != nil {
		return sbi.StatsReply{}, err
	}
	if reply.Stats == nil {
		return sbi.StatsReply{}, fmt.Errorf("core: %s returned no stats", mbName)
	}
	return *reply.Stats, nil
}

// ArmFlowTrace arms the middlebox's filtered flow tracer: capture up to
// budget per-hop records of packets matching m in either direction. The
// middlebox compiles the predicate once at arm time (sbi.OpTraceFlow);
// budget<=0 selects the runtime's default.
func (c *Controller) ArmFlowTrace(mbName string, m packet.FieldMatch, budget int) error {
	_, err := c.call(mbName, &sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpTraceFlow, Match: m, Count: budget, Enable: true})
	return err
}

// DisarmFlowTrace stops the middlebox's tracer; captured records remain
// retrievable via FlowTraceRecords.
func (c *Controller) DisarmFlowTrace(mbName string) error {
	_, err := c.call(mbName, &sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpTraceFlow})
	return err
}

// FlowTraceRecords dumps the middlebox's newest trace session: one rendered
// record per line, in capture order. Dumping does not disturb an armed
// session.
func (c *Controller) FlowTraceRecords(mbName string) ([]string, error) {
	reply, err := c.call(mbName, &sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpTraceDump})
	if err != nil {
		return nil, err
	}
	return reply.Values, nil
}

// chunkKeys returns the flow keys of a chunk frame as IDs, in frame order.
// A key no ID can hold only comes from a middlebox that skipped its own
// export check; it routes as its wire encoding would (the address as 0) and
// the put that follows fails on it.
func chunkKeys(m *sbi.Message) []packet.FlowID {
	keys := make([]packet.FlowID, 0, m.ChunkCount())
	m.EachChunk(func(ch *state.Chunk) {
		id, _ := ch.Key.ID()
		keys = append(keys, id)
	})
	return keys
}

// putJob is one received chunk frame (with its keys and its get's ID) to
// forward to a move's destination.
type putJob struct {
	op    sbi.Op
	frame *sbi.Message
}

// MoveInternal implements moveInternal(SrcMB, DstMB, HeaderFieldList):
// move all per-flow supporting and reporting state matching m from src to
// dst, per the Figure 5 sequence. It returns once every exported chunk has
// been installed (put-ACKed) at the destination. Event forwarding continues
// in the background; once the source goes quiet for the configured period,
// the controller deletes the moved state at the source, completing the move.
func (c *Controller) MoveInternal(srcMB, dstMB string, m packet.FieldMatch) error {
	src, err := c.mb(srcMB)
	if err != nil {
		return err
	}
	dst, err := c.mb(dstMB)
	if err != nil {
		return err
	}
	return c.moveConns(src, dst, m)
}

// moveConns is MoveInternal on resolved connections; a Node calls it after
// resolving names with find-retry.
func (c *Controller) moveConns(src, dst *mbConn, m packet.FieldMatch) error {
	c.movesStarted.Add(1)
	moveStart := time.Now()
	t := newTxn(c, src, dst)

	errCh := make(chan error, 1)
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}

	doPut := func(j putJob) {
		// Credit the frame back to its get whatever becomes of the put: an
		// uncredited frame would stall the stream, not fail it.
		defer src.send(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpCredit, ID: j.frame.ID, Count: 1})
		put := &sbi.Message{
			Type: sbi.MsgRequest, Op: j.op,
			Chunk: j.frame.Chunk, Chunks: j.frame.Chunks,
			Compressed: j.frame.Compressed,
		}
		putStart := time.Now()
		if _, perr := dst.call(put, c.opts.CallTimeout); perr != nil {
			fail(perr)
		}
		// Put-ACK round trip, observed on success and failure alike (a
		// timed-out put is the tail the histogram exists to expose).
		c.histPut.Observe(time.Since(putStart))
		t.ackFrame(j.frame.Keys)
	}

	// Puts run on PutWorkers goroutines (the destination installs on one
	// goroutine anyway) fed by a FIFO of one credit window per get stream,
	// which a source keeping its window cannot fill (ARCHITECTURE.md,
	// "Credit-windowed gets"). The pool spawns on the first frame, all
	// workers at once — a move that exports nothing pays for no goroutines,
	// and spawning per frame measurably delays pipeline fill-up.
	window := c.opts.PutWorkers
	puts := make(chan putJob, 2*window)
	var putWG sync.WaitGroup
	var poolOnce sync.Once
	enqueue := func(j putJob) {
		poolOnce.Do(func() {
			putWG.Add(c.opts.PutWorkers)
			for i := 0; i < c.opts.PutWorkers; i++ {
				go func() {
					defer putWG.Done()
					for j := range puts {
						doPut(j)
					}
				}()
			}
		})
		puts <- j
	}

	// One get per state class; the read loop registers each streamed
	// chunk (so events start buffering), then the chunks are put to the
	// destination — one put per received frame, so a batched get yields
	// batched puts; ACKs release the buffered events for every key in
	// the frame.
	movePair := func(getOp, putOp sbi.Op) {
		get := &sbi.Message{
			Type: sbi.MsgRequest, Op: getOp, Match: m,
			Compressed: c.opts.Compress, Batch: c.opts.BatchSize, Window: window,
		}
		getStart := time.Now()
		_, err := src.stream(t, get, c.opts.CallTimeout, func(chunk *sbi.Message) error {
			var bytes uint64
			chunk.EachChunk(func(ch *state.Chunk) { bytes += uint64(len(ch.Blob)) })
			c.chunksMoved.Add(uint64(len(chunk.Keys)))
			c.bytesMoved.Add(bytes)
			enqueue(putJob{op: putOp, frame: chunk})
			return nil
		})
		// Get-stream duration: first request frame to the stream's done.
		c.histGet.Observe(time.Since(getStart))
		if err != nil {
			fail(err)
		}
	}

	var getWG sync.WaitGroup
	getWG.Add(2)
	go func() { defer getWG.Done(); movePair(sbi.OpGetSupportPerflow, sbi.OpPutSupportPerflow) }()
	go func() { defer getWG.Done(); movePair(sbi.OpGetReportPerflow, sbi.OpPutReportPerflow) }()
	getWG.Wait()
	close(puts)
	putWG.Wait()
	// The move window closes here: every chunk is exported and its put
	// ACKed, so the destination owns the state (the quiet-period delete at
	// the source is background completion, not part of the window).
	c.histMove.Observe(time.Since(moveStart))

	select {
	case err := <-errCh:
		// A failed move ends its transaction at the source, or the source
		// keeps every exported key marked and raising reprocess events no
		// transaction routes. Events raised before the clear route first;
		// the destination keeps what it installed, since it may hold state
		// of its own under m.
		_, _ = src.call(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpEndTransaction, Match: m}, c.opts.CallTimeout)
		src.drainEvents(c.opts.CallTimeout)
		t.detach()
		return err
	default:
	}

	// Background completion: wait for event quiescence, then delete the
	// moved state at the source (which also clears its transaction
	// marks), and detach the event routing.
	c.finishAfterQuiet(t, func() {
		_, _ = src.call(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpDelSupportPerflow, Match: m}, c.opts.CallTimeout)
		_, _ = src.call(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpDelReportPerflow, Match: m}, c.opts.CallTimeout)
		// The deletes above destroyed the source's post-snapshot updates for
		// marked packets that were still draining off its ingress ring; the
		// source flushed their reprocess events ahead of the delete acks.
		// Route them all (they forward to the destination for replay) before
		// tearing down the routing entries — detaching first would orphan
		// them and lose those packets from the moved state.
		src.drainEvents(c.opts.CallTimeout)
		t.detach()
	})
	return nil
}

// CloneSupport implements cloneSupport(SrcMB, DstMB): copy the shared
// supporting state from src to dst (§5). Reprocess events raised by the
// source while the clone is in progress are forwarded so the copy stays
// up to date (§6.1); no delete is issued when events stop — the source
// keeps its state. The transaction ends (marks cleared at the source) after
// the quiet period.
func (c *Controller) CloneSupport(srcMB, dstMB string) error {
	return c.sharedTransfer(srcMB, dstMB, []sbi.Op{sbi.OpGetSupportShared}, []sbi.Op{sbi.OpPutSupportShared})
}

// MergeInternal implements mergeInternal(SrcMB, DstMB): merge the shared
// supporting and reporting state of src into dst. The destination applies
// its own merge semantics (§4.1.2, §4.1.3) — e.g. summing counters. No
// delete is issued; the source is typically deprecated by the application
// afterwards (scale-down, §6.2).
func (c *Controller) MergeInternal(srcMB, dstMB string) error {
	return c.sharedTransfer(srcMB, dstMB,
		[]sbi.Op{sbi.OpGetSupportShared, sbi.OpGetReportShared},
		[]sbi.Op{sbi.OpPutSupportShared, sbi.OpPutReportShared})
}

func (c *Controller) sharedTransfer(srcMB, dstMB string, getOps, putOps []sbi.Op) error {
	src, err := c.mb(srcMB)
	if err != nil {
		return err
	}
	dst, err := c.mb(dstMB)
	if err != nil {
		return err
	}
	t := newTxn(c, src, dst)
	for i, getOp := range getOps {
		t.registerShared()
		reply, err := src.call(&sbi.Message{Type: sbi.MsgRequest, Op: getOp, Compressed: c.opts.Compress}, c.opts.CallTimeout)
		if err != nil {
			t.detach()
			return err
		}
		if reply.Count == 0 && len(reply.Blob) == 0 {
			// The source maintains no shared state of this class:
			// nothing to transfer (and no mark was set).
			t.ackSharedPut()
			continue
		}
		c.bytesMoved.Add(uint64(len(reply.Blob)))
		_, err = dst.call(&sbi.Message{Type: sbi.MsgRequest, Op: putOps[i], Blob: reply.Blob, Compressed: reply.Compressed}, c.opts.CallTimeout)
		if err != nil {
			t.detach()
			return err
		}
		t.ackSharedPut()
	}
	// Background completion: after quiescence, end the transaction at the
	// source so it stops raising events; state is left in place.
	c.finishAfterQuiet(t, func() {
		_, _ = src.call(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpEndTransaction, Enable: true}, c.opts.CallTimeout)
		// Shared events flushed ahead of the end-transaction ack still need
		// routing (they forward to the destination, which replays them into
		// its shared copy only — Context.SkipPerflow); detach after.
		src.drainEvents(c.opts.CallTimeout)
		t.detach()
	})
	return nil
}

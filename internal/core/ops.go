package core

import (
	"fmt"
	"sync"
	"time"

	"openmb/internal/obs"
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

// chunkKeys appends the flow keys of a chunk frame to keys as IDs, in frame
// order. A key no ID can hold only comes from a middlebox that skipped its
// own export check; it routes as its wire encoding would (the address as 0)
// and the put that follows fails on it.
func chunkKeys(keys []packet.FlowID, m *sbi.Message) []packet.FlowID {
	m.EachChunk(func(ch *state.Chunk) {
		id, _ := ch.Key.ID()
		keys = append(keys, id)
	})
	return keys
}

// putJob is one received chunk frame (with its keys and its get's ID) to
// forward to a transaction's destination.
type putJob struct {
	op    sbi.Op
	frame *sbi.Message
}

// opPair is one get/put pair of a transaction: a per-flow state class,
// streamed in chunk frames under the transaction's match, or (shared) one
// class of shared state, got and put as one blob.
type opPair struct {
	get, put sbi.Op
	shared   bool
}

var (
	movePairs = []opPair{
		{sbi.OpGetSupportPerflow, sbi.OpPutSupportPerflow, false},
		{sbi.OpGetReportPerflow, sbi.OpPutReportPerflow, false},
	}
	clonePairs = []opPair{{sbi.OpGetSupportShared, sbi.OpPutSupportShared, true}}
	mergePairs = []opPair{clonePairs[0], {sbi.OpGetReportShared, sbi.OpPutReportShared, true}}
)

// transfer is what one operation hands the transaction engine: its pairs,
// the request that ends its transaction at the source if it fails, and the
// requests that complete it once the source has gone quiet.
type transfer struct {
	m      packet.FieldMatch
	pairs  []opPair
	window *obs.Histogram // observes the data phase, when set
	abort  *sbi.Message
	finish []*sbi.Message
}

// MoveInternal implements moveInternal(SrcMB, DstMB, HeaderFieldList):
// move all per-flow supporting and reporting state matching m from src to
// dst, per the Figure 5 sequence. Both endpoints are resolved wherever the
// cluster holds them (resolve). It returns once every exported chunk has
// been installed (put-ACKed) at the destination. Event forwarding continues
// in the background; once the source goes quiet for the configured period,
// the controller deletes the moved state at the source, completing the move.
func (c *Controller) MoveInternal(srcMB, dstMB string, m packet.FieldMatch) error {
	src, dst, err := c.resolvePair(srcMB, dstMB, c.resolve)
	if err != nil {
		return err
	}
	return c.moveConns(src, dst, m)
}

// moveConns is MoveInternal on resolved connections; RecoverMove calls it
// too. A failed move clears the source's marks under m; a completed one
// deletes the moved state there, which clears them too.
func (c *Controller) moveConns(src, dst *mbConn, m packet.FieldMatch) error {
	c.movesStarted.Add(1)
	return c.transact(src, dst, transfer{
		m: m, pairs: movePairs, window: &c.histMove,
		abort: &sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpEndTransaction, Match: m},
		finish: []*sbi.Message{
			{Type: sbi.MsgRequest, Op: sbi.OpDelSupportPerflow, Match: m},
			{Type: sbi.MsgRequest, Op: sbi.OpDelReportPerflow, Match: m},
		},
	})
}

// CloneSupport implements cloneSupport(SrcMB, DstMB): copy the shared
// supporting state from src to dst (§5). Reprocess events raised by the
// source while the clone is in progress are forwarded so the copy stays
// up to date (§6.1); no delete is issued when events stop — the source
// keeps its state. The transaction ends (marks cleared at the source) after
// the quiet period.
func (c *Controller) CloneSupport(srcMB, dstMB string) error {
	return c.transactShared(srcMB, dstMB, clonePairs)
}

// MergeInternal implements mergeInternal(SrcMB, DstMB): merge the shared
// supporting and reporting state of src into dst. The destination applies
// its own merge semantics (§4.1.2, §4.1.3) — e.g. summing counters. No
// delete is issued; the source is typically deprecated by the application
// afterwards (scale-down, §6.2).
func (c *Controller) MergeInternal(srcMB, dstMB string) error {
	return c.transactShared(srcMB, dstMB, mergePairs)
}

// transactShared runs a clone or a merge between endpoints resolved as
// MoveInternal resolves them. It deletes nothing: ending the transaction
// clears the source's shared mark, on failure and at completion alike.
func (c *Controller) transactShared(srcMB, dstMB string, pairs []opPair) error {
	src, dst, err := c.resolvePair(srcMB, dstMB, c.resolve)
	if err != nil {
		return err
	}
	end := &sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpEndTransaction, Enable: true}
	return c.transact(src, dst, transfer{pairs: pairs, abort: end, finish: []*sbi.Message{end}})
}

// transact is the one transaction engine (§4.2.1) behind moves, clones and
// merges. It runs every pair of tr from src to dst at once. The router holds
// the source's events for each get's state from before they can arrive until
// that state's put is ACKed, then forwards them to dst in order. If a get or
// a put fails, the transaction ends at once: tr.abort goes to the source, the
// events it raised before that are routed, and the routing is detached, which
// drops the events still held for a failed shared put. The destination keeps
// what it installed, since it may hold state of its own: a merge whose two
// shared pairs run at once can leave either class merged without the other.
// Otherwise transact returns once every put is ACKed, and tr.finish goes to
// the source in the background, once the source has been quiet for the
// configured period.
func (c *Controller) transact(src, dst *mbConn, tr transfer) error {
	start := time.Now()
	t := newTxn(c, src, dst)

	errCh := make(chan error, 1)
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}

	// A put worker sends its puts and credits from one message out: Send
	// encodes before it returns.
	doPut := func(j putJob, out *sbi.Message) {
		keys, id := j.frame.Keys, j.frame.ID // before the frame is released
		*out = sbi.Message{
			Type: sbi.MsgRequest, Op: j.op,
			Chunk: j.frame.Chunk, Chunks: j.frame.Chunks,
			Compressed: j.frame.Compressed,
		}
		putStart := time.Now()
		if ack, perr := dst.call(out, c.opts.CallTimeout); perr != nil {
			fail(perr)
		} else {
			ack.Release()
		}
		j.frame.Release() // nothing reads it once the put is encoded
		// Put-ACK round trip, observed on success and failure alike (a
		// timed-out put is the tail the histogram exists to expose).
		c.histPut.Observe(time.Since(putStart))
		t.ackFrame(keys)
		// Credit the frame back to its get whatever became of the put: an
		// uncredited frame would stall the stream, not fail it.
		*out = sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpCredit, ID: id, Count: 1}
		_ = src.conn.Send(out)
	}

	// Puts run on PutWorkers goroutines (the destination installs on one
	// goroutine anyway) fed by a FIFO of one credit window per get stream,
	// which a source keeping its window cannot fill (ARCHITECTURE.md,
	// "Credit-windowed gets"). The pool spawns on the first frame, all
	// workers at once — a transaction that streams nothing pays for no
	// goroutines, and spawning per frame measurably delays pipeline fill-up.
	window := c.opts.PutWorkers
	puts := make(chan putJob, len(tr.pairs)*window)
	var putWG sync.WaitGroup
	var poolOnce sync.Once
	enqueue := func(j putJob) {
		poolOnce.Do(func() {
			putWG.Add(c.opts.PutWorkers)
			for i := 0; i < c.opts.PutWorkers; i++ {
				go func() {
					defer putWG.Done()
					var out sbi.Message
					for j := range puts {
						doPut(j, &out)
					}
				}()
			}
		})
		puts <- j
	}

	// A per-flow pair is one get stream; the read loop registers each
	// streamed chunk (so events start buffering), then the chunks are put
	// to the destination — one put per received frame, so a batched get
	// yields batched puts; ACKs release the buffered events for every key
	// in the frame.
	streamPair := func(p opPair) {
		get := &sbi.Message{
			Type: sbi.MsgRequest, Op: p.get, Match: tr.m,
			Compressed: c.opts.Compress, Batch: c.opts.BatchSize, Window: window,
		}
		getStart := time.Now()
		_, err := src.stream(t, get, c.opts.CallTimeout, func(chunk *sbi.Message) error {
			var bytes uint64
			chunk.EachChunk(func(ch *state.Chunk) { bytes += uint64(len(ch.Blob)) })
			c.chunksMoved.Add(uint64(len(chunk.Keys)))
			c.bytesMoved.Add(bytes)
			enqueue(putJob{op: p.put, frame: chunk})
			return nil
		})
		// Get-stream duration: first request frame to the stream's done.
		c.histGet.Observe(time.Since(getStart))
		if err != nil {
			fail(err)
		}
	}

	// A shared pair is one blob each way, routed under packet.SharedID. It
	// registers before its get is sent: the source marks its shared state
	// while serving the get, and the events that mark raises may reach the
	// router ahead of the reply. A source with no shared state of the class
	// answers Count 0 and sets no mark. Only a put that succeeded is ACKed:
	// the destination of a failed one never got the snapshot, so the events
	// buffered against it stay pending until detach drops them.
	sharedPair := func(p opPair) {
		keys := []packet.FlowID{packet.SharedID}
		t.registerFrame(keys)
		reply, err := src.call(&sbi.Message{Type: sbi.MsgRequest, Op: p.get, Compressed: c.opts.Compress}, c.opts.CallTimeout)
		if err == nil && (reply.Count > 0 || len(reply.Blob) > 0) {
			c.bytesMoved.Add(uint64(len(reply.Blob)))
			_, err = dst.call(&sbi.Message{Type: sbi.MsgRequest, Op: p.put, Blob: reply.Blob, Compressed: reply.Compressed}, c.opts.CallTimeout)
		}
		if err != nil {
			fail(err)
			return
		}
		t.ackFrame(keys)
	}

	var getWG sync.WaitGroup
	for _, p := range tr.pairs {
		getWG.Add(1)
		go func() {
			defer getWG.Done()
			if p.shared {
				sharedPair(p)
			} else {
				streamPair(p)
			}
		}()
	}
	getWG.Wait()
	close(puts)
	putWG.Wait()
	// The data phase ends here: every get is done and its put ACKed, so the
	// destination holds the state (completion at the source is background
	// work, not part of the window).
	if tr.window != nil {
		tr.window.Observe(time.Since(start))
	}

	select {
	case err := <-errCh:
		// Without the end, the source would keep its exported state marked
		// and raise reprocess events no transaction routes.
		_, _ = src.call(tr.abort, c.opts.CallTimeout)
		src.drainEvents(c.opts.CallTimeout)
		t.detach()
		return err
	default:
	}

	t.armQuiet(func() {
		for _, req := range tr.finish {
			_, _ = src.call(req, c.opts.CallTimeout)
		}
		// The source flushed every event it raised under its old marks
		// ahead of these acks. Route them all (they forward to the
		// destination) before tearing down the routing entries, which
		// would orphan them. For a move they are the only record of the
		// updates its deletes destroyed: those of marked packets still
		// draining off the source's ingress ring.
		src.drainEvents(c.opts.CallTimeout)
		t.detach()
	})
	return nil
}

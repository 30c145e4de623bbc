package mbox

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"openmb/internal/obs"
	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/state"
)

// Connect dials the controller at addr over the given transport, announces
// the middlebox, and starts the southbound service loop. It corresponds to
// the paper's MBs connecting to the controller, which then launches one
// thread for state operations and one for events per MB.
//
// addr may be a comma-separated list of controller addresses. The first is
// preferred; the rest are failover candidates tried in order when a dial
// fails or a controller refuses the registration (a partitioned cluster
// node that cannot commit ownership), and a cross-node pull's redirect
// promotes the new owner's address to the front of the list.
func (rt *Runtime) Connect(tr sbi.Transport, addr string) error {
	var addrs []string
	for _, a := range strings.Split(addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return fmt.Errorf("mbox: connect: no controller address")
	}
	rt.connMu.Lock()
	rt.tr, rt.addrs = tr, addrs
	rt.connMu.Unlock()
	conn, err := rt.dialSouthbound()
	if err != nil {
		return err
	}
	rt.connMu.Lock()
	rt.conn = conn
	rt.connMu.Unlock()
	rt.workersWG.Add(1)
	go rt.serveSouthbound(conn)
	return nil
}

// dialSouthbound dials the stored controller addresses in preference order
// and performs the session-establishing exchange on the first that answers:
// hello (always JSON) announcing name, kind, codec, and event-batch
// willingness, then the codec upgrade. The winning address is promoted to
// the front of the list so later redials prefer the controller that last
// worked. Used by Connect and by the reconnect loop — session resume IS
// this exchange re-run: marks, filters, and logic state live runtime-side
// and carry over, while the controller rebuilds its routing view from the
// registration.
func (rt *Runtime) dialSouthbound() (*sbi.Conn, error) {
	rt.connMu.RLock()
	tr := rt.tr
	addrs := append([]string(nil), rt.addrs...)
	rt.connMu.RUnlock()
	codec, err := sbi.ParseCodec(string(rt.codec))
	if err != nil {
		return nil, fmt.Errorf("mbox: connect %q: %w", addrs[0], err)
	}
	var lastErr error
	for _, addr := range addrs {
		raw, err := tr.Dial(addr)
		if err != nil {
			lastErr = fmt.Errorf("mbox: connect %q: %w", addr, err)
			continue
		}
		conn := sbi.NewConn(raw)
		hello := &sbi.Message{Type: sbi.MsgHello, Name: rt.name, Kind: rt.logic.Kind()}
		if codec != sbi.CodecJSON {
			hello.Codec = codec
		}
		// Announce willingness to receive batched reprocess frames (the
		// event analogue of chunk batching); a controller that predates
		// event batching ignores the field and keeps per-event delivery.
		hello.Batch = sbi.MaxEventsPerFrame
		if err := conn.Send(hello); err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		// The hello is always JSON; every frame after it uses the announced
		// codec, on both sides.
		if err := conn.Upgrade(codec); err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		rt.promoteAddr(addr)
		return conn, nil
	}
	return nil, lastErr
}

// promoteAddr makes addr the preferred (first-dialed) controller address,
// learning it if it was not in the list. Called when a dial succeeds and
// when a controller redirects the middlebox to its new owner.
func (rt *Runtime) promoteAddr(addr string) {
	if addr == "" {
		return
	}
	rt.connMu.Lock()
	defer rt.connMu.Unlock()
	out := make([]string, 0, len(rt.addrs)+1)
	out = append(out, addr)
	for _, a := range rt.addrs {
		if a != addr {
			out = append(out, a)
		}
	}
	rt.addrs = out
}

// rotateAddr demotes the preferred address behind the other candidates, so
// the next dial tries a different controller first. Called when a
// controller accepts the connection but refuses the registration — a dial
// failure already skips ahead on its own, but a refusal needs an explicit
// rotation or the runtime would redial the refuser forever.
func (rt *Runtime) rotateAddr() {
	rt.connMu.Lock()
	defer rt.connMu.Unlock()
	if len(rt.addrs) > 1 {
		rt.addrs = append(rt.addrs[1:], rt.addrs[0])
	}
}

// reconnectLoop redials the controller after a southbound disconnect:
// exponential backoff between reconnectMin and reconnectMax, with up to
// half a step of deterministic jitter derived from the instance name. It
// exits on rt.stop or once a fresh session is established and its serve
// loop started.
func (rt *Runtime) reconnectLoop() {
	defer rt.workersWG.Done()
	h := fnv.New64a()
	h.Write([]byte(rt.name))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	delay := rt.reconnectMin
	for {
		jitter := time.Duration(rng.Int63n(int64(delay)/2 + 1))
		select {
		case <-rt.stop:
			return
		case <-time.After(delay + jitter):
		}
		conn, err := rt.dialSouthbound()
		if err == nil {
			rt.connMu.Lock()
			select {
			case <-rt.stop:
				// Close won the race: it already closed (or will never
				// see) this conn, so shut it down here and bail.
				rt.connMu.Unlock()
				conn.Close()
				return
			default:
			}
			rt.conn = conn
			rt.connMu.Unlock()
			rt.reconnects.Add(1)
			rt.workersWG.Add(1)
			go rt.serveSouthbound(conn)
			return
		}
		delay *= 2
		if delay > rt.reconnectMax {
			delay = rt.reconnectMax
		}
	}
}

// maxDeferredReplies bounds reply coalescing: after this many served
// requests the loop flushes even if more input is already buffered. The
// cap matters under sustained inbound load — during a move the controller
// keeps the destination's read buffer non-empty with reprocess deliveries,
// and an uncapped "flush only at idle" rule would park the put ACKs the
// controller's pipeline is waiting on indefinitely (a starvation feedback:
// stalled ACKs lengthen the move window, which buffers more events, which
// keeps the read buffer fuller).
const maxDeferredReplies = 16

func (rt *Runtime) serveSouthbound(conn *sbi.Conn) {
	defer rt.workersWG.Done()
	gets := getStreams{live: map[uint64]*getStream{}}
	served, received := 0, 0
	for {
		m, err := conn.Receive()
		if err != nil {
			if received == 0 {
				// The session died before a single frame arrived: the
				// controller cut us off at the hello (HelloTimeout on a
				// partitioned path) or its refusal never made it through.
				// Prefer a different candidate on the redial.
				rt.rotateAddr()
			}
			// The loop is exiting with replies possibly still deferred
			// (and other senders' frames left to a waiting flusher);
			// publish them so a half-served pipeline is not lost with the
			// buffer (a no-op on a closed transport). Then the session's
			// gets stop before a redial can start the next session's.
			_ = conn.Flush()
			conn.Close()
			gets.settle(packet.MatchAll)
			if rt.reconnect {
				// Spawn the redial loop unless the runtime is shutting
				// down. The Add is safe against Close's Wait: this
				// goroutine still holds its own workersWG count until
				// the deferred Done runs, after the Add.
				select {
				case <-rt.stop:
				default:
					rt.workersWG.Add(1)
					go rt.reconnectLoop()
				}
			}
			return
		}
		received++
		if m.Type == sbi.MsgError && m.ID == 0 {
			// An unsolicited error is a refused registration — a
			// partitioned cluster node that cannot quorum-commit ownership
			// answers the hello this way and closes. Rotate so the redial
			// tries the next candidate controller instead of the refuser.
			rt.rotateAddr()
			conn.Close()
			continue
		}
		if m.Type != sbi.MsgRequest {
			continue
		}
		// Requests are served on the southbound goroutine, per-flow gets
		// on their own; the packet worker runs concurrently, so a get takes
		// the table's lock per chunk (exportPerflow).
		rt.serveRequest(conn, &gets, m)
		served++
		// Reply coalescing: replies are encoded deferred, and the flush
		// happens when the loop is about to block on the transport — or
		// at the deferral cap, whichever comes first. A pipelined request
		// burst thus shares flushes across its ACKs, while a lone
		// request's reply still reaches the wire before the loop sleeps —
		// the same flush-on-idle discipline the Conn applies to racing
		// senders.
		if served >= maxDeferredReplies || conn.ReadBuffered() == 0 {
			_ = conn.Flush()
			served = 0
		}
	}
}

func (rt *Runtime) serveRequest(conn *sbi.Conn, gets *getStreams, m *sbi.Message) {
	fail := func(err error) {
		_ = conn.SendDeferred(&sbi.Message{Type: sbi.MsgError, ID: m.ID, Error: err.Error()})
	}
	switch m.Op {
	case sbi.OpGetConfig:
		entries, err := rt.logic.Config().Export(m.Path)
		if err != nil {
			fail(err)
			return
		}
		_ = conn.SendDeferred(&sbi.Message{Type: sbi.MsgDone, ID: m.ID, Entries: entries, Count: len(entries)})

	case sbi.OpSetConfig:
		var err error
		if len(m.Entries) > 0 {
			// Bulk import: writeConfig(MB, "*", values) cloning.
			err = rt.logic.Config().Import(m.Entries)
		} else {
			err = rt.logic.Config().Set(m.Path, m.Values)
		}
		if err != nil {
			fail(err)
			return
		}
		_ = conn.SendDeferred(&sbi.Message{Type: sbi.MsgDone, ID: m.ID})

	case sbi.OpDelConfig:
		if err := rt.logic.Config().Del(m.Path); err != nil {
			fail(err)
			return
		}
		_ = conn.SendDeferred(&sbi.Message{Type: sbi.MsgDone, ID: m.ID})

	case sbi.OpGetSupportPerflow:
		rt.startGet(conn, gets, m, state.Supporting)
	case sbi.OpGetReportPerflow:
		rt.startGet(conn, gets, m, state.Reporting)
	case sbi.OpCredit:
		gets.credit(m.ID, m.Count)
		m.Release()

	case sbi.OpPutSupportPerflow:
		rt.servePutPerflow(conn, m, state.Supporting, &gets.ack)
	case sbi.OpPutReportPerflow:
		rt.servePutPerflow(conn, m, state.Reporting, &gets.ack)

	case sbi.OpDelSupportPerflow:
		rt.serveDelPerflow(conn, gets, m, state.Supporting)
	case sbi.OpDelReportPerflow:
		rt.serveDelPerflow(conn, gets, m, state.Reporting)

	case sbi.OpGetSupportShared:
		rt.serveGetShared(conn, m, state.Supporting)
	case sbi.OpGetReportShared:
		rt.serveGetShared(conn, m, state.Reporting)

	case sbi.OpPutSupportShared:
		rt.servePutShared(conn, m, state.Supporting)
	case sbi.OpPutReportShared:
		rt.servePutShared(conn, m, state.Reporting)

	case sbi.OpStats:
		s := rt.logic.Stats(m.Match)
		_ = conn.SendDeferred(&sbi.Message{Type: sbi.MsgDone, ID: m.ID, Stats: &s})

	case sbi.OpSetEventFilter:
		f := eventFilter{codePrefix: m.Path, match: m.Match.ForID(), enable: m.Enable}
		now := time.Now()
		if m.TTLNanos > 0 {
			f.expires = now.Add(time.Duration(m.TTLNanos))
		}
		// The newest matching filter decides (filterAllowsBurst): drop the
		// expired ones and those with f's prefix and match that f outlives.
		rt.filtersMu.Lock()
		rt.filters = append(slices.DeleteFunc(rt.filters, func(o eventFilter) bool {
			outlived := f.expires.IsZero() || !o.expires.IsZero() && !f.expires.Before(o.expires)
			return !o.expires.IsZero() && now.After(o.expires) || o.codePrefix == f.codePrefix && o.match == f.match && outlived
		}), f)
		rt.filtersMu.Unlock()
		_ = conn.SendDeferred(&sbi.Message{Type: sbi.MsgDone, ID: m.ID})

	case sbi.OpPing:
		// Liveness probe (docs/SBI.md): the done reply carries Op=pong so
		// the probe is answered explicitly on the wire. Pre-pong peers
		// interoperate both ways — the prober's liveness clock advances on
		// any received frame, so a plain done (old mbox) or an ignored op
		// marker (old controller, which skips done frames with no pending
		// call) are both still a valid pong. The reply rides the
		// reply-coalescing path like any other response — the serve loop
		// flushes before blocking, so a pong never lingers.
		_ = conn.SendDeferred(&sbi.Message{Type: sbi.MsgDone, ID: m.ID, Op: sbi.OpPong})

	case sbi.OpTraceFlow:
		// Arm (Enable) or disarm the filtered flow tracer. The match
		// predicate is compiled once here, at arm time; Count is the
		// record budget (0 = default). Near-zero data-path cost while
		// disarmed is the contract docs/ARCHITECTURE.md pins.
		if m.Enable {
			rt.ArmTrace(obs.TraceSpec{Match: m.Match, Budget: m.Count})
		} else {
			rt.DisarmTrace()
		}
		_ = conn.SendDeferred(&sbi.Message{Type: sbi.MsgDone, ID: m.ID})

	case sbi.OpTraceDump:
		// Dump the newest trace session's records, one rendered line per
		// record in capture order, without disturbing an armed session.
		recs := rt.TraceRecords()
		vals := make([]string, len(recs))
		for i, r := range recs {
			vals[i] = r.String()
		}
		_ = conn.SendDeferred(&sbi.Message{Type: sbi.MsgDone, ID: m.ID, Count: len(recs), Values: vals})

	case sbi.OpRedirect:
		// Ownership moved across the cluster: reconnect to the named node.
		// The ack must reach the wire before the connection drops (the old
		// owner's release call is waiting on it), so it is flushed
		// explicitly: a get streamer or the event outbox may be sending
		// too, and a Send could leave the ack to them. Then the new
		// address is promoted and the session closed — the serve loop's
		// exit path redials, now preferring the new owner.
		if m.Addr == "" {
			fail(fmt.Errorf("mbox: redirect without address"))
			return
		}
		_ = conn.SendDeferred(&sbi.Message{Type: sbi.MsgDone, ID: m.ID})
		_ = conn.Flush()
		rt.promoteAddr(m.Addr)
		conn.Close()
		gets.settle(packet.MatchAll)
		if !rt.reconnect {
			// A redirect implies a redial even when the steady-state
			// reconnect loop is disabled; one-shot, same stop-race
			// discipline as the serve loop's exit path.
			select {
			case <-rt.stop:
			default:
				rt.workersWG.Add(1)
				go rt.reconnectLoop()
			}
		}

	case sbi.OpEndTransaction:
		if m.Enable {
			rt.updateMarks(func() { clear(rt.sharedMoved) })
		} else {
			gets.settle(m.Match)
			rt.clearMarks(m.Match, state.Supporting)
			rt.clearMarks(m.Match, state.Reporting)
		}
		// Events decided against the old marks must reach the wire before
		// the ack: the controller detaches the transaction's routing once
		// this op completes.
		rt.syncEvents()
		_ = conn.SendDeferred(&sbi.Message{Type: sbi.MsgDone, ID: m.ID})

	case sbi.OpReprocess:
		// One frame may carry a whole coalescing window's events (the
		// controller batches per destination when the hello announced it);
		// each replays independently, in frame (seq) order. Validation is
		// all-or-nothing: every packet unmarshals before any replay is
		// enqueued, so the error reply keeps the seed's single-event
		// meaning of "nothing was applied", and a packetless event
		// anywhere in the frame is the same frame error it was alone.
		var replays []replayJob
		var evErr error
		m.EachEvent(func(ev *sbi.Event) {
			if evErr != nil {
				return
			}
			if len(ev.Packet) == 0 {
				evErr = fmt.Errorf("mbox: reprocess without packet")
				return
			}
			var p packet.Packet
			if err := p.Unmarshal(ev.Packet); err != nil {
				evErr = err
				return
			}
			replays = append(replays, replayJob{p: &p, shared: ev.Shared})
		})
		if evErr != nil {
			fail(evErr)
			return
		}
		if len(replays) == 0 {
			fail(fmt.Errorf("mbox: reprocess without packet"))
			return
		}
		for _, r := range replays {
			rt.enqueueReplay(r.p, r.shared)
		}
		// Reprocess events are not individually acknowledged (Figure 5
		// tracks ACKs only for puts).

	default:
		fail(fmt.Errorf("mbox: unknown op %q", m.Op))
	}
}

// getStream is one per-flow get in flight (docs/SBI.md): out holds a token
// per chunk frame not yet credited (no room: the get has no window); cancel
// closes to stop the get, done once it has.
type getStream struct {
	match             packet.IDMatch
	out, cancel, done chan struct{}
	stop              sync.Once
}

// acquire makes room for one more frame, flushing before it waits so the
// frames to be credited are on the wire; false means cancelled. The tokens
// held then are the frames beyond the credit, recorded in peak.
func (g *getStream) acquire(conn *sbi.Conn, peak *atomic.Int64) bool {
	select {
	case <-g.cancel:
		return false
	default:
	}
	if cap(g.out) == 0 {
		return true
	}
	select {
	case g.out <- struct{}{}:
	default:
		_ = conn.Flush()
		select {
		case g.out <- struct{}{}:
		case <-g.cancel:
			return false
		}
	}
	for n, old := int64(len(g.out)), peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
	}
	return true
}

// getStreams is a session's gets in flight by request ID.
type getStreams struct {
	mu   sync.Mutex
	live map[uint64]*getStream
	ack  sbi.Message // the serve loop's put ACK, reused: SendDeferred encodes it
}

// credit frees n frames of get id's window; n <= 0 cancels the get.
func (s *getStreams) credit(id uint64, n int) {
	s.mu.Lock()
	g := s.live[id]
	s.mu.Unlock()
	if g != nil && n <= 0 {
		g.stop.Do(func() { close(g.cancel) })
	}
	for ; g != nil && n > 0; n-- {
		select {
		case <-g.out:
		default:
			return // more credit than frames out: the window stays full size
		}
	}
}

// settle cancels every get in flight whose match overlaps m and waits for it
// to exit, so that no key under m is marked once the caller clears m's marks.
// A cancelled get never waits for credit, so neither does settle.
func (s *getStreams) settle(m packet.FieldMatch) {
	var exits []chan struct{}
	s.mu.Lock()
	for _, g := range s.live {
		if g.match.OverlapsEither(m.ForID()) {
			g.stop.Do(func() { close(g.cancel) })
			exits = append(exits, g.done)
		}
	}
	s.mu.Unlock()
	for _, done := range exits {
		<-done
	}
}

// startGet serves a per-flow get on its own goroutine: waiting for credit
// must not block the serve loop, which carries the puts whose ACKs are that
// credit (ARCHITECTURE.md, "Credit-windowed gets"). The export loop holds no
// lock across its emit (exportPerflow), so the wait stalls nothing else.
func (rt *Runtime) startGet(conn *sbi.Conn, gets *getStreams, m *sbi.Message, class state.Class) {
	g := &getStream{match: m.Match.ForID(), out: make(chan struct{}, max(m.Window, 0)),
		cancel: make(chan struct{}), done: make(chan struct{})}
	gets.mu.Lock()
	gets.live[m.ID] = g
	gets.mu.Unlock()
	rt.workersWG.Add(1)
	go func() {
		defer rt.workersWG.Done()
		rt.serveGetPerflow(conn, m, class, g)
		gets.mu.Lock()
		delete(gets.live, m.ID)
		gets.mu.Unlock()
		close(g.done)
	}()
}

func (rt *Runtime) serveGetPerflow(conn *sbi.Conn, m *sbi.Message, class state.Class, g *getStream) {
	rt.activeOps.Add(1)
	defer rt.activeOps.Add(-1)
	// The request's Batch asks for up to that many chunks per MsgChunk
	// frame; 0/1 is the paper's one-chunk-per-frame framing.
	batch := m.Batch
	if batch < 1 {
		batch = 1
	}
	count := 0
	// The get's blobs are one run of nonces, sealed into one slab; a frame's
	// message, chunks and slab are reused once SendDeferred has encoded it.
	fs := rt.sealer.Frame()
	defer fs.Release()
	var pending []state.Chunk
	var slab []byte
	out := &sbi.Message{Type: sbi.MsgChunk, ID: m.ID, Compressed: m.Compressed}
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		if !g.acquire(conn, &rt.creditPeak) {
			return errors.New("mbox: get cancelled")
		}
		out.SetChunks(pending)
		err := conn.SendDeferred(out)
		pending, slab = pending[:0], slab[:0]
		return err
	}
	mark := func(id packet.FlowID) { rt.markKey(class, id) }
	err := exportPerflow(rt.table, class, m.Match, mark, func(id packet.FlowID, blob []byte) error {
		if m.Compressed {
			blob = deflate(blob)
		}
		count++
		if pending == nil {
			// One allocation per get at the usual batch sizes; the
			// request's batch alone never sizes an allocation.
			pending = make([]state.Chunk, 0, min(batch, 64))
		}
		n := len(slab)
		slab = fs.AppendSeal(slab, blob)
		pending = append(pending, state.Chunk{Key: id.Key(), Blob: slab[n:len(slab):len(slab)]})
		if len(pending) >= batch {
			return flush()
		}
		return nil
	})
	if err == nil {
		err = flush()
	}
	// The serve loop may be parked in Receive: the last frame flushes.
	if err != nil {
		_ = conn.Send(&sbi.Message{Type: sbi.MsgError, ID: m.ID, Error: err.Error()})
		return
	}
	// The get's ACK (Figure 5): all matching chunks have been exported.
	_ = conn.Send(&sbi.Message{Type: sbi.MsgDone, ID: m.ID, Count: count})
}

func (rt *Runtime) servePutPerflow(conn *sbi.Conn, m *sbi.Message, class state.Class, ack *sbi.Message) {
	rt.activeOps.Add(1)
	defer rt.activeOps.Add(-1)
	if m.ChunkCount() == 0 {
		_ = conn.SendDeferred(&sbi.Message{Type: sbi.MsgError, ID: m.ID, Error: "mbox: put without chunk"})
		return
	}
	installed := 0
	var err error
	// One FrameSealer opens the whole frame, reusing its scratch buffer.
	// The blobs open in place: the frame is this runtime's own, freshly
	// decoded. It goes back to the codec's pool once the reply is encoded,
	// so the table's codec copies what it keeps.
	defer m.Release()
	fs := rt.sealer.Frame()
	defer fs.Release()
	m.EachChunk(func(c *state.Chunk) {
		if err != nil {
			return
		}
		var blob []byte
		blob, err = fs.Open(c.Blob)
		if err == nil && m.Compressed {
			blob, err = inflate(blob)
		}
		if err == nil {
			err = rt.table.PutPerflow(class, state.Chunk{Key: c.Key, Blob: blob})
		}
		if err == nil {
			installed++
		}
	})
	if err != nil {
		_ = conn.SendDeferred(&sbi.Message{Type: sbi.MsgError, ID: m.ID, Error: err.Error()})
		return
	}
	// The put's ACK: every chunk in the frame is installed and replayed
	// events for their keys may now be applied.
	*ack = sbi.Message{Type: sbi.MsgDone, ID: m.ID, Count: installed}
	_ = conn.SendDeferred(ack)
}

func (rt *Runtime) serveDelPerflow(conn *sbi.Conn, gets *getStreams, m *sbi.Message, class state.Class) {
	rt.activeOps.Add(1)
	defer rt.activeOps.Add(-1)
	gets.settle(m.Match) // no get marks under m once the marks below clear
	n, err := delPerflow(rt.table, class, m.Match)
	if err != nil {
		_ = conn.SendDeferred(&sbi.Message{Type: sbi.MsgError, ID: m.ID, Error: err.Error()})
		return
	}
	// Completing a move ends the transaction for these keys.
	rt.clearMarks(m.Match, class)
	// The delete above destroyed state that includes updates from marked
	// packets still draining off the ingress ring; their reprocess events
	// are the only surviving record. Publish them all before the ack so
	// the controller forwards them while the move is still attached.
	rt.syncEvents()
	_ = conn.SendDeferred(&sbi.Message{Type: sbi.MsgDone, ID: m.ID, Count: n})
}

func (rt *Runtime) serveGetShared(conn *sbi.Conn, m *sbi.Message, class state.Class) {
	rt.activeOps.Add(1)
	defer rt.activeOps.Add(-1)
	blob, err := rt.logic.GetShared(class, func() { rt.markShared(class) })
	if errors.Is(err, ErrNoSharedState) {
		// Absent class: an empty transfer, not a failure (Count 0).
		_ = conn.SendDeferred(&sbi.Message{Type: sbi.MsgDone, ID: m.ID, Count: 0})
		return
	}
	if err != nil {
		_ = conn.SendDeferred(&sbi.Message{Type: sbi.MsgError, ID: m.ID, Error: err.Error()})
		return
	}
	if m.Compressed {
		blob = deflate(blob)
	}
	_ = conn.SendDeferred(&sbi.Message{Type: sbi.MsgDone, ID: m.ID, Blob: rt.sealer.Seal(blob), Compressed: m.Compressed, Count: 1})
}

func (rt *Runtime) servePutShared(conn *sbi.Conn, m *sbi.Message, class state.Class) {
	rt.activeOps.Add(1)
	defer rt.activeOps.Add(-1)
	blob, err := rt.sealer.Open(m.Blob)
	if err == nil && m.Compressed {
		blob, err = inflate(blob)
	}
	if err == nil {
		err = rt.logic.PutShared(class, blob)
	}
	if err != nil {
		_ = conn.SendDeferred(&sbi.Message{Type: sbi.MsgError, ID: m.ID, Error: err.Error()})
		return
	}
	_ = conn.SendDeferred(&sbi.Message{Type: sbi.MsgDone, ID: m.ID, Count: 1})
}

func (rt *Runtime) enqueueReplay(p *packet.Packet, shared bool) {
	rt.pending.Add(1)
	if !rt.ring.tryPushReplay(p, shared) {
		rt.droppedReplays.Add(1)
		rt.pending.Add(-1)
		p.Release()
	}
}

// flateWriters and flateReaders recycle compressor state across chunks: a
// flate.Writer carries hundreds of KB of tables, so building one per chunk
// cost more in the allocator than the compression itself.
var (
	flateWriters = sync.Pool{New: func() any {
		w, _ := flate.NewWriter(nil, flate.DefaultCompression) // errors only on an invalid level
		return w
	}}
	flateReaders = sync.Pool{New: func() any { return flate.NewReader(nil) }}
)

// deflate compresses b with flate at default compression.
func deflate(b []byte) []byte {
	var buf bytes.Buffer
	w := flateWriters.Get().(*flate.Writer)
	defer flateWriters.Put(w)
	w.Reset(&buf)
	if _, err := w.Write(b); err != nil {
		panic("mbox: flate write: " + err.Error())
	}
	if err := w.Close(); err != nil {
		panic("mbox: flate close: " + err.Error())
	}
	return buf.Bytes()
}

// inflate reverses deflate.
func inflate(b []byte) ([]byte, error) {
	r := flateReaders.Get().(io.ReadCloser)
	defer flateReaders.Put(r)
	if err := r.(flate.Resetter).Reset(bytes.NewReader(b), nil); err != nil {
		return nil, err
	}
	return io.ReadAll(r)
}

// replayJob is one validated reprocess event awaiting enqueue (batched
// frames validate every event before enqueuing any).
type replayJob struct {
	p      *packet.Packet
	shared bool
}

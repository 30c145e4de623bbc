package core

import (
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"openmb/internal/obs"
	"openmb/internal/packet"
	"openmb/internal/sbi"
)

// Node is one controller process of a cluster: exactly one Controller,
// joined to fellow nodes over SBI peer links (peer.go). Around the
// controller it adds:
//
//   - a replicated middlebox directory (repdir.go): every node holds a full
//     name → owning-node copy, updated by versioned OpDirUpdate peer ops
//     under a deterministic conflict rule, so lookups never cross the wire
//     and keep answering (stale but safe) under partition;
//   - quorum-committed ownership: registering a middlebox bumps its
//     directory entry and requires acknowledgments from a majority of known
//     nodes. A partitioned minority node refuses registrations — and
//     therefore refuses to become an owner it could not prove — while dead
//     nodes stay in the denominator, so a majority-side survivor keeps
//     committing after a crash;
//   - cross-node middlebox movement: Pull asks the owner to export the
//     middlebox's routing state as the standard OpTransferOwnership
//     payload and redirect the middlebox here; the
//     payload's transaction table is resolved through the local registry by
//     wire ID, with unresolvable (remote-coordinated) transactions dropped
//     as aborted-remote;
//   - RecoverMove, a survivor's restart of a move whose coordinator died.
//
// Node embeds the controller (through Cluster), so the whole northbound API
// works on a node for the middleboxes registered here; MoveInternal is
// shadowed to pull both endpoints local first.
type Node struct {
	*Cluster

	name      string
	advertise string
	opts      NodeOptions
	tr        sbi.Transport

	repdir *repDirectory

	mu       sync.Mutex
	peers    map[string]*peerConn // live links, by remote node name
	known    map[string]string    // every non-departed node ever seen (name → addr), self excluded
	listener net.Listener
	closed   atomic.Bool

	dirCommits     atomic.Uint64
	dirRefusals    atomic.Uint64
	peerReconnects atomic.Uint64
	pulls          atomic.Uint64
	// dirMissRetries counts findRetry lookups that found the name
	// unregistered and had to wait for it.
	dirMissRetries atomic.Uint64
}

// NodeOptions configures a cluster node.
type NodeOptions struct {
	// Name identifies this node cluster-wide; it must be unique among
	// peers (default "node"). It also salts the transaction registry so
	// wire-visible txn IDs never collide across processes.
	Name string
	// Advertise is the address peers and redirected middleboxes dial to
	// reach this node; defaults to the Serve listener's address.
	Advertise string
	// PeerCallTimeout bounds one peer round trip (default 3s). It doubles
	// as the partition detector: a timed-out call closes the link.
	PeerCallTimeout time.Duration
	// PullTimeout bounds how long a Pull waits for the released middlebox
	// to redial this node (default 10s).
	PullTimeout time.Duration
	// FindRetryWindow bounds how long MoveInternal and RecoverMove wait for
	// a middlebox name that transiently resolves nowhere (mid-pull,
	// mid-recovery, mid-reconnect) before failing (default 2s: failover gaps
	// include dial latencies and reconnect backoff).
	FindRetryWindow time.Duration
	// Cluster configures the node's controller.
	Cluster ClusterOptions
}

// nodeSalt derives the registry ID salt from the node name: 16 well-mixed
// bits in the high half, leaving 2^48 IDs per node before any overlap.
func nodeSalt(name string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(name))
	return (mix64(f.Sum64()) & 0xFFFF) << 48
}

// NewNode creates a node around a fresh controller.
func NewNode(opts NodeOptions) *Node {
	if opts.Name == "" {
		opts.Name = "node"
	}
	if opts.PeerCallTimeout <= 0 {
		opts.PeerCallTimeout = 3 * time.Second
	}
	if opts.PullTimeout <= 0 {
		opts.PullTimeout = 10 * time.Second
	}
	if opts.FindRetryWindow <= 0 {
		opts.FindRetryWindow = 2 * time.Second
	}
	cl := NewCluster(opts.Cluster)
	cl.registry.seed(nodeSalt(opts.Name))
	return &Node{
		Cluster:   cl,
		name:      opts.Name,
		advertise: opts.Advertise,
		opts:      opts,
		repdir:    newRepDirectory(),
		peers:     map[string]*peerConn{},
		known:     map[string]string{},
	}
}

// Name returns the node's cluster-wide name.
func (n *Node) Name() string { return n.name }

// Serve starts the node's accept loop: middlebox hellos are quorum-committed
// into the replicated directory and handed to the controller; peer hellos
// are answered and become node-to-node links.
func (n *Node) Serve(tr sbi.Transport, addr string) error {
	l, err := tr.Listen(addr)
	if err != nil {
		return fmt.Errorf("core: node %s listen %q: %w", n.name, addr, err)
	}
	n.mu.Lock()
	n.tr = tr
	n.listener = l
	if n.advertise == "" {
		n.advertise = l.Addr().String()
	}
	n.mu.Unlock()
	go n.acceptLoop(l)
	return nil
}

// Addr returns the node listener's address, or "" before Serve.
func (n *Node) Addr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.listener == nil {
		return ""
	}
	return n.listener.Addr().String()
}

// Advertise returns the address this node announces to peers and redirected
// middleboxes.
func (n *Node) Advertise() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.advertise
}

func (n *Node) acceptLoop(l net.Listener) {
	for {
		raw, err := l.Accept()
		if err != nil {
			return
		}
		go func() {
			conn := sbi.NewConn(raw)
			_ = conn.SetReadDeadline(time.Now().Add(n.Controller.opts.HelloTimeout))
			hello, err := conn.Receive()
			if err != nil || hello.Type != sbi.MsgHello || hello.Name == "" {
				conn.Close()
				return
			}
			_ = conn.SetReadDeadline(time.Time{})
			if hello.Kind == sbi.PeerKind {
				n.acceptPeer(conn, hello)
				return
			}
			// Middlebox registration is an ownership change: it must
			// commit to the replicated directory under quorum before the
			// connection is accepted. A partitioned node refuses here —
			// the middlebox's reconnect machinery moves on to the next
			// address in its list, which is a node that CAN commit.
			if err := n.commitOwnership(hello.Name); err != nil {
				_ = conn.Send(&sbi.Message{Type: sbi.MsgError, Error: err.Error()})
				conn.Close()
				return
			}
			n.Controller.serveMB(conn, hello)
		}()
	}
}

// ---------------------------------------------------------------------------
// Peer mesh.

// Join dials a member of an existing cluster, syncs the replicated
// directory, and dials every other node the member knows — one exchange
// makes the mesh full again.
func (n *Node) Join(addr string) error {
	p, err := n.connectPeer(addr)
	if err != nil {
		return err
	}
	resp, err := p.call(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpDirSync}, n.opts.PeerCallTimeout)
	if err != nil {
		return err
	}
	for _, e := range resp.Dir {
		n.repdir.apply(e)
	}
	for _, kv := range resp.Values {
		name, peerAddr, ok := strings.Cut(kv, "=")
		if !ok || name == n.name || peerAddr == "" {
			continue
		}
		n.mu.Lock()
		n.known[name] = peerAddr
		linked := n.peers[name] != nil
		n.mu.Unlock()
		if !linked {
			// Best-effort: an unreachable third node surfaces later as a
			// quorum refusal, not a failed join.
			go func(a string) { _, _ = n.connectPeer(a) }(peerAddr)
		}
	}
	return nil
}

// connectPeer dials one peer: JSON hello announcing the peer role and our
// advertised address, the acceptor's hello back (the only answered hello in
// the protocol — the dialer needs the remote name), then the binary codec.
func (n *Node) connectPeer(addr string) (*peerConn, error) {
	n.mu.Lock()
	tr := n.tr
	adv := n.advertise
	n.mu.Unlock()
	if tr == nil {
		return nil, fmt.Errorf("core: node %s: not serving yet", n.name)
	}
	raw, err := tr.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("core: node %s dial peer %q: %w", n.name, addr, err)
	}
	conn := sbi.NewConn(raw)
	hello := &sbi.Message{Type: sbi.MsgHello, Name: n.name, Kind: sbi.PeerKind, Codec: sbi.CodecBinary, Addr: adv}
	if err := conn.Send(hello); err != nil {
		conn.Close()
		return nil, err
	}
	_ = conn.SetReadDeadline(time.Now().Add(n.opts.PeerCallTimeout))
	reply, err := conn.Receive()
	if err != nil || reply.Type != sbi.MsgHello || reply.Name == "" {
		conn.Close()
		return nil, fmt.Errorf("core: node %s: peer %q sent no hello back", n.name, addr)
	}
	_ = conn.SetReadDeadline(time.Time{})
	if err := conn.Upgrade(sbi.CodecBinary); err != nil {
		conn.Close()
		return nil, err
	}
	peerAddr := reply.Addr
	if peerAddr == "" {
		peerAddr = addr
	}
	return n.registerPeer(reply.Name, peerAddr, conn), nil
}

// acceptPeer completes the accept side of the handshake.
func (n *Node) acceptPeer(conn *sbi.Conn, hello *sbi.Message) {
	n.mu.Lock()
	adv := n.advertise
	n.mu.Unlock()
	ours := &sbi.Message{Type: sbi.MsgHello, Name: n.name, Kind: sbi.PeerKind, Codec: hello.Codec, Addr: adv}
	if err := conn.Send(ours); err != nil {
		conn.Close()
		return
	}
	if err := conn.Upgrade(hello.Codec); err != nil {
		conn.Close()
		return
	}
	n.registerPeer(hello.Name, hello.Addr, conn)
}

// registerPeer records the link and starts its read loop. Latest wins: a
// fresh link to a name replaces (and closes) any stale one, which is how
// both a reconnect and a simultaneous cross-dial converge to one link.
func (n *Node) registerPeer(name, addr string, conn *sbi.Conn) *peerConn {
	p := newPeerConn(n, name, addr, conn)
	n.mu.Lock()
	old := n.peers[name]
	n.peers[name] = p
	if addr != "" {
		n.known[name] = addr
	}
	n.mu.Unlock()
	if old != nil {
		old.close()
	}
	go p.readLoop()
	// Anti-entropy: every (re)established link syncs directories, so entries
	// committed while the two nodes could not talk — a healed partition, a
	// node that was down — converge without waiting for the next commit.
	go func() {
		resp, err := p.call(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpDirSync}, n.opts.PeerCallTimeout)
		if err != nil {
			return
		}
		for _, e := range resp.Dir {
			n.repdir.apply(e)
		}
	}()
	return p
}

// peerGone handles a dead link. The node with the smaller name owns
// redialing (deterministic, so a heal produces one link, not a crossed
// pair); the peer stays in the known set regardless — only an explicit
// OpPeerLeave shrinks the quorum denominator.
func (n *Node) peerGone(p *peerConn) {
	n.mu.Lock()
	if n.peers[p.name] == p {
		delete(n.peers, p.name)
	}
	_, stillKnown := n.known[p.name]
	n.mu.Unlock()
	if stillKnown && !n.closed.Load() && n.name < p.name {
		go n.redialLoop(p.name, p.addr)
	}
}

func (n *Node) redialLoop(name, addr string) {
	delay := 100 * time.Millisecond
	for !n.closed.Load() {
		n.mu.Lock()
		_, stillKnown := n.known[name]
		linked := n.peers[name] != nil
		n.mu.Unlock()
		if !stillKnown || linked {
			return
		}
		if _, err := n.connectPeer(addr); err == nil {
			n.peerReconnects.Add(1)
			return
		}
		time.Sleep(delay)
		if delay *= 2; delay > 2*time.Second {
			delay = 2 * time.Second
		}
	}
}

// peer returns the live link to a node, or nil.
func (n *Node) peer(name string) *peerConn {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.peers[name]
}

// Peers lists the node names with live links, sorted.
func (n *Node) Peers() []string {
	n.mu.Lock()
	names := make([]string, 0, len(n.peers))
	for name := range n.peers {
		names = append(names, name)
	}
	n.mu.Unlock()
	sort.Strings(names)
	return names
}

// KnownNodes reports how many nodes this one believes are in the cluster,
// itself included — the quorum denominator.
func (n *Node) KnownNodes() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.known) + 1
}

// ---------------------------------------------------------------------------
// Replicated directory.

// Lookup answers which node owns the middlebox, from the local replica of
// the directory. Always local, therefore partition-safe: a minority node
// keeps serving its last synchronized (stale-but-safe) view.
func (n *Node) Lookup(mbName string) (string, bool) {
	return n.repdir.lookup(mbName)
}

// commitOwnership records this node as mbName's owner, durably: the bumped
// entry must be acknowledged by a majority of known nodes (self included)
// before it is applied and the registration accepted. Dead nodes never ack
// but stay known, so a 3-node cluster with one crashed member still commits
// 2-of-3, while a partitioned single node fails 1-of-3 and refuses.
func (n *Node) commitOwnership(mbName string) error {
	e := n.repdir.next(mbName, n.name)
	n.mu.Lock()
	total := len(n.known) + 1
	links := make([]*peerConn, 0, len(n.peers))
	for _, p := range n.peers {
		links = append(links, p)
	}
	n.mu.Unlock()

	acks := 1 // self
	if total > 1 {
		update := &sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpDirUpdate, Dir: []sbi.DirEntry{e}}
		results := make(chan bool, len(links))
		for _, p := range links {
			go func(p *peerConn) {
				_, err := p.call(&sbi.Message{Type: update.Type, Op: update.Op, Dir: update.Dir}, n.opts.PeerCallTimeout)
				results <- err == nil
			}(p)
		}
		for range links {
			if <-results {
				acks++
			}
		}
	}
	if 2*acks <= total {
		n.dirRefusals.Add(1)
		return fmt.Errorf("core: node %s: cannot commit ownership of %q: %d of %d nodes acknowledged (partitioned minority refuses ownership changes)", n.name, mbName, acks, total)
	}
	n.repdir.apply(e)
	n.dirCommits.Add(1)
	return nil
}

// servePeerRequest handles one incoming peer op and replies on the link.
func (n *Node) servePeerRequest(p *peerConn, m *sbi.Message) {
	switch m.Op {
	case sbi.OpDirUpdate:
		for _, e := range m.Dir {
			n.repdir.apply(e)
		}
		p.reply(&sbi.Message{Type: sbi.MsgDone, ID: m.ID})
	case sbi.OpDirSync:
		n.mu.Lock()
		values := make([]string, 0, len(n.known)+1)
		values = append(values, n.name+"="+n.advertise)
		for name, addr := range n.known {
			values = append(values, name+"="+addr)
		}
		n.mu.Unlock()
		sort.Strings(values)
		p.reply(&sbi.Message{Type: sbi.MsgDone, ID: m.ID, Dir: n.repdir.snapshot(), Values: values})
	case sbi.OpPeerLeave:
		p.reply(&sbi.Message{Type: sbi.MsgDone, ID: m.ID})
		n.mu.Lock()
		delete(n.known, p.name)
		n.mu.Unlock()
		p.close()
	case sbi.OpReleaseMB:
		h, err := n.releaseMB(m.Name, m.Addr)
		if err != nil {
			p.reply(&sbi.Message{Type: sbi.MsgError, ID: m.ID, Error: err.Error()})
			return
		}
		p.reply(&sbi.Message{Type: sbi.MsgDone, ID: m.ID, Handoff: h})
	default:
		p.reply(&sbi.Message{Type: sbi.MsgError, ID: m.ID, Error: fmt.Sprintf("core: unknown peer op %q", m.Op)})
	}
}

// releaseMB gives up a locally registered middlebox to the node at toAddr:
// export its routing state (the caller ships it back in the reply), then
// redirect the middlebox so it redials its new owner. Nothing freezes the
// connection, so events the middlebox raises between the export and the
// redirect route here, land as orphans and die with the connection;
// RecoverMove restores any move they belonged to.
func (n *Node) releaseMB(mbName, toAddr string) (*sbi.Handoff, error) {
	c := n.Controller
	mb, err := c.mb(mbName)
	if err != nil {
		return nil, err
	}
	h := c.router.exportHandoff(mb)
	if toAddr != "" {
		_, _ = mb.call(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpRedirect, Addr: toAddr}, c.opts.CallTimeout)
	}
	return h, nil
}

// Pull moves ownership of a middlebox to this node: ask the current owner
// to release it (export + redirect), wait for the middlebox to redial here
// (its registration quorum-commits the directory change), then import the
// exported routing state from the wire payload through the local registry.
// Remote-coordinated transactions resolve to nothing and drop as
// aborted-remote; a subsequent RecoverMove restores any move they were
// mid-flight on. Pulling an already-local middlebox is a no-op.
func (n *Node) Pull(mbName string) error {
	if _, err := n.Controller.mb(mbName); err == nil {
		return nil
	}
	owner, ok := n.repdir.lookup(mbName)
	if !ok {
		return fmt.Errorf("core: node %s: no directory entry for %q", n.name, mbName)
	}
	if owner == n.name {
		return fmt.Errorf("core: node %s: directory names this node for %q but it is not registered", n.name, mbName)
	}
	p := n.peer(owner)
	if p == nil {
		return fmt.Errorf("core: node %s: no live peer link to %q (owner of %q)", n.name, owner, mbName)
	}
	resp, err := p.call(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpReleaseMB, Name: mbName, Addr: n.Advertise()}, n.opts.PeerCallTimeout)
	if err != nil {
		return err
	}
	if err := n.Controller.WaitForMB(mbName, n.opts.PullTimeout); err != nil {
		return fmt.Errorf("core: node %s: released middlebox %q never redialed: %w", n.name, mbName, err)
	}
	if resp.Handoff != nil && len(resp.Handoff.Keys) > 0 {
		mb, err := n.findRetry(mbName)
		if err != nil {
			return err
		}
		if _, err := n.Controller.router.importHandoff(mb, resp.Handoff, n.Controller.registry); err != nil {
			return err
		}
	}
	n.pulls.Add(1)
	return nil
}

// findRetry resolves a registered middlebox, waiting up to FindRetryWindow
// on the controller's WaitForMB registry for a name that transiently
// resolves nowhere (mid-pull, mid-recovery, mid-reconnect), so the
// northbound API rides out that window instead of surfacing a spurious
// unknown-middlebox error.
func (n *Node) findRetry(name string) (*mbConn, error) {
	deadline := time.Now().Add(n.opts.FindRetryWindow)
	for {
		mb, err := n.Controller.mb(name)
		if err == nil {
			return mb, nil
		}
		n.dirMissRetries.Add(1)
		if n.Controller.WaitForMB(name, time.Until(deadline)) != nil {
			return nil, err
		}
	}
}

// MoveInternal shadows Controller.MoveInternal with cross-node awareness:
// both endpoints are pulled local first (the wire handoff travels on the
// peer link; the middlebox redials), then the move runs on this node's
// controller unchanged.
func (n *Node) MoveInternal(srcMB, dstMB string, m packet.FieldMatch) error {
	if err := n.Pull(srcMB); err != nil {
		return err
	}
	if err := n.Pull(dstMB); err != nil {
		return err
	}
	src, dst, err := n.findPair(srcMB, dstMB)
	if err != nil {
		return err
	}
	return n.Controller.moveConns(src, dst, m)
}

// RecoverMove restores a move whose coordinating node died mid-flight: its
// registry, and with it every live transaction, died with it, so whichever
// node the middleboxes reconnect to rolls the half-applied transfer back to
// "the move never happened" and runs the move again from scratch. Both
// middleboxes must be registered here. It is safe on a move that never
// started or whose data phase finished, but not on one that completed: the
// rollback would delete the destination's only copy.
func (n *Node) RecoverMove(srcMB, dstMB string, m packet.FieldMatch) error {
	src, dst, err := n.findPair(srcMB, dstMB)
	if err != nil {
		return err
	}
	n.rollbackMove(src, dst, m)
	return n.Controller.moveConns(src, dst, m)
}

func (n *Node) findPair(srcMB, dstMB string) (src, dst *mbConn, err error) {
	if src, err = n.findRetry(srcMB); err != nil {
		return nil, nil, err
	}
	if dst, err = n.findRetry(dstMB); err != nil {
		return nil, nil, err
	}
	return src, dst, nil
}

// rollbackMove undoes a move whose coordinator died mid-data-phase.
// Conservation rests on one fact about the middlebox runtime: live packets
// are ALWAYS counted at the source, marked or not (marks only trigger
// reprocess events; replay-time skips apply to replays, not live traffic).
// Source state is never deleted before a move completes, so the source
// still holds a complete, correct copy — snapshot values plus every
// in-window increment — and rollback reduces to wiping the destination's
// partial copy and the transfer's bookkeeping:
//
//  1. clear the source's per-flow transaction marks under m. The source
//     cancels every get still running under m and waits for it to exit
//     before it clears, so no key under m is marked once this returns and
//     no new reprocess event can be raised;
//  2. sleep one quiet period: events raised just before the clear may still
//     be in the source's coalescing outbox or on the wire, and replays
//     already forwarded may still be in the destination's ingress ring (the
//     timing argument the normal completion path's quiet period rests on);
//  3. drain the source's event pipeline (received-but-unrouted events), so
//     every stale event has landed in an orphan list;
//  4. purge those orphans: their packets' increments are inside the
//     restart's snapshot, so letting the restart adopt and replay them
//     would double-count;
//  5. delete the half-installed per-flow state at the destination. This
//     presumes the destination holds no independent state under m — the
//     standing precondition for a per-flow move to be meaningful at all.
func (n *Node) rollbackMove(src, dst *mbConn, m packet.FieldMatch) {
	c := n.Controller
	timeout := c.opts.CallTimeout
	_, _ = src.call(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpEndTransaction, Match: m}, timeout)
	time.Sleep(c.opts.QuietPeriod)
	src.drainEvents(timeout)
	c.router.purgeOrphanMatch(src, m)
	_, _ = dst.call(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpDelSupportPerflow, Match: m}, timeout)
	_, _ = dst.call(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpDelReportPerflow, Match: m}, timeout)
}

// ---------------------------------------------------------------------------
// Lifecycle and metrics.

// Shutdown is the graceful exit: wait out in-flight transactions, announce
// departure to every peer (shrinking their quorum denominators), then tear
// the node down. The timeout bounds the transaction wait; departure
// announcements use the peer call timeout.
func (n *Node) Shutdown(timeout time.Duration) {
	n.Controller.WaitTxns(timeout)
	n.mu.Lock()
	links := make([]*peerConn, 0, len(n.peers))
	for _, p := range n.peers {
		links = append(links, p)
	}
	n.mu.Unlock()
	var wg sync.WaitGroup
	for _, p := range links {
		wg.Add(1)
		go func(p *peerConn) {
			defer wg.Done()
			_, _ = p.call(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpPeerLeave}, n.opts.PeerCallTimeout)
		}(p)
	}
	wg.Wait()
	n.Close()
}

// Close stops the node: listener, peer links, then the controller. Peers
// are NOT notified (that is Shutdown) — a closed-without-leave node stays in
// its peers' quorum denominators, like a crash.
func (n *Node) Close() {
	if !n.closed.CompareAndSwap(false, true) {
		return
	}
	n.mu.Lock()
	l := n.listener
	links := make([]*peerConn, 0, len(n.peers))
	for _, p := range n.peers {
		links = append(links, p)
	}
	n.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, p := range links {
		p.close()
	}
	n.Controller.Close()
}

// Collect implements obs.Collector: the controller's series plus the node
// layer's own counters.
func (n *Node) Collect(e *obs.Emitter) {
	n.Controller.Collect(e)
	e.Counter("openmb_node_dir_commits_total", "Replicated-directory ownership changes committed under quorum.", n.dirCommits.Load())
	e.Counter("openmb_node_dir_refusals_total", "Ownership changes refused for lack of quorum (partitioned minority).", n.dirRefusals.Load())
	e.Counter("openmb_node_peer_reconnects_total", "Peer links re-established after loss.", n.peerReconnects.Load())
	e.Counter("openmb_node_pulls_total", "Middleboxes pulled from other nodes.", n.pulls.Load())
	e.Counter("openmb_directory_miss_retries_total", "Northbound lookups that found a middlebox name unregistered and waited for it.", n.dirMissRetries.Load())
}

package core

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"

	"openmb/internal/packet"
	"openmb/internal/sbi"
)

// Node names a Controller as a cluster node. The alias exists because
// benchmark/moves.go builds and reads nodes by it; it goes in ROADMAP item
// 1's benchmark PR.
type Node = Controller

// NodeOptions configures a controller as a cluster node.
type NodeOptions struct {
	// Name identifies this node cluster-wide; it must be unique among
	// peers (default "node"). It also salts the transaction registry so
	// txn IDs never collide across processes.
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
	// FindRetryWindow bounds how long MoveInternal, CloneSupport,
	// MergeInternal and RecoverMove wait for a middlebox this node owns but
	// that is not registered (mid-pull, mid-recovery, mid-reconnect) before
	// failing (default 2s: failover gaps include dial latencies and
	// reconnect backoff).
	FindRetryWindow time.Duration
	// Cluster configures the node's controller; benchmark/moves.go keeps
	// the name until ROADMAP item 1's benchmark PR.
	Cluster ClusterOptions
}

// nodeSalt derives the registry ID salt from the node name: 16 well-mixed
// bits in the high half, leaving 2^48 IDs per node before any overlap.
func nodeSalt(name string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(name))
	return (mix64(f.Sum64()) & 0xFFFF) << 48
}

// NewNode creates a controller as a named cluster node. More than one
// replica panics: a node is one controller.
func NewNode(opts NodeOptions) *Controller {
	if opts.Cluster.Replicas > 1 {
		panic(fmt.Sprintf("core: %d replicas: a node is one controller", opts.Cluster.Replicas))
	}
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
	copts := opts.Cluster.Controller
	copts.setDefaults()
	c := &Controller{
		opts: copts, nodeOpts: opts, name: opts.Name, advertise: opts.Advertise,
		router:   newTxnRouter(copts.Shards),
		registry: newTxnRegistry(nodeSalt(opts.Name)),
		repdir:   newRepDirectory(),
		mbs:      map[string]*mbConn{},
		waiters:  map[string][]chan struct{}{},
		peers:    map[string]*peerConn{},
		known:    map[string]string{},
	}
	c.Cluster = Cluster{c}
	return c
}

// Name returns the node's cluster-wide name.
func (c *Controller) Name() string { return c.name }

// Advertise returns the address this node announces to peers and redirected
// middleboxes.
func (c *Controller) Advertise() string {
	c.peerMu.Lock()
	defer c.peerMu.Unlock()
	return c.advertise
}

// admit is the admission step, run on the accept path after a connection's
// hello: a peer hello is answered and becomes a node-to-node link; a
// middlebox hello is quorum-committed into the replicated directory before
// the controller registers it.
func (c *Controller) admit(conn *sbi.Conn, hello *sbi.Message) {
	if c.closed.Load() {
		conn.Close()
		return
	}
	if hello.Kind == sbi.PeerKind {
		c.acceptPeer(conn, hello)
		return
	}
	// Middlebox registration is an ownership change: it must commit to the
	// replicated directory under quorum before the connection is accepted.
	// A partitioned node refuses here — the middlebox's reconnect machinery
	// moves on to the next address in its list, which is a node that CAN
	// commit. The connection is not registered yet, so this goroutine is its
	// only sender: the Send flushes its own frame before the Close.
	if err := c.commitOwnership(hello.Name); err != nil {
		_ = conn.Send(&sbi.Message{Type: sbi.MsgError, Error: err.Error()})
		conn.Close()
		return
	}
	c.serveMB(conn, hello)
}

// ---------------------------------------------------------------------------
// Peer mesh.

// Join dials a member of an existing cluster, syncs the replicated
// directory, and dials every other node the member knows — one exchange
// makes the mesh full again.
func (c *Controller) Join(addr string) error {
	p, err := c.connectPeer(addr)
	if err != nil {
		return err
	}
	resp, err := p.call(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpDirSync}, c.nodeOpts.PeerCallTimeout)
	if err != nil {
		return err
	}
	for _, e := range resp.Dir {
		c.repdir.apply(e)
	}
	for _, kv := range resp.Values {
		name, peerAddr, ok := strings.Cut(kv, "=")
		if !ok || name == c.name || peerAddr == "" {
			continue
		}
		c.peerMu.Lock()
		c.known[name] = peerAddr
		linked := c.peers[name] != nil
		c.peerMu.Unlock()
		if !linked {
			// Best-effort: an unreachable third node surfaces later as a
			// quorum refusal, not a failed join.
			go func(a string) { _, _ = c.connectPeer(a) }(peerAddr)
		}
	}
	return nil
}

// connectPeer dials one peer: JSON hello announcing the peer role and our
// advertised address, the acceptor's hello back (the only answered hello in
// the protocol — the dialer needs the remote name), then the binary codec.
func (c *Controller) connectPeer(addr string) (*peerConn, error) {
	c.peerMu.Lock()
	tr := c.tr
	adv := c.advertise
	c.peerMu.Unlock()
	if tr == nil {
		return nil, fmt.Errorf("core: node %s: not serving yet", c.name)
	}
	raw, err := tr.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("core: node %s dial peer %q: %w", c.name, addr, err)
	}
	conn := sbi.NewConn(raw)
	hello := &sbi.Message{Type: sbi.MsgHello, Name: c.name, Kind: sbi.PeerKind, Codec: sbi.CodecBinary, Addr: adv}
	if err := conn.Send(hello); err != nil {
		conn.Close()
		return nil, err
	}
	_ = conn.SetReadDeadline(time.Now().Add(c.nodeOpts.PeerCallTimeout))
	reply, err := conn.Receive()
	if err != nil || reply.Type != sbi.MsgHello || reply.Name == "" {
		conn.Close()
		return nil, fmt.Errorf("core: node %s: peer %q sent no hello back", c.name, addr)
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
	return c.registerPeer(reply.Name, peerAddr, conn), nil
}

// acceptPeer completes the accept side of the handshake.
func (c *Controller) acceptPeer(conn *sbi.Conn, hello *sbi.Message) {
	c.peerMu.Lock()
	adv := c.advertise
	c.peerMu.Unlock()
	ours := &sbi.Message{Type: sbi.MsgHello, Name: c.name, Kind: sbi.PeerKind, Codec: hello.Codec, Addr: adv}
	if err := conn.Send(ours); err != nil {
		conn.Close()
		return
	}
	if err := conn.Upgrade(hello.Codec); err != nil {
		conn.Close()
		return
	}
	c.registerPeer(hello.Name, hello.Addr, conn)
}

// registerPeer records the link and starts its read loop. Latest wins: a
// fresh link to a name replaces (and closes) any stale one, which is how
// both a reconnect and a simultaneous cross-dial converge to one link.
func (c *Controller) registerPeer(name, addr string, conn *sbi.Conn) *peerConn {
	p := newPeerConn(c, name, addr, conn)
	c.peerMu.Lock()
	old := c.peers[name]
	c.peers[name] = p
	if addr != "" {
		c.known[name] = addr
	}
	c.peerMu.Unlock()
	if old != nil {
		old.close()
	}
	go p.readLoop()
	// Anti-entropy: every (re)established link syncs directories, so entries
	// committed while the two nodes could not talk — a healed partition, a
	// node that was down — converge without waiting for the next commit.
	go func() {
		resp, err := p.call(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpDirSync}, c.nodeOpts.PeerCallTimeout)
		if err != nil {
			return
		}
		for _, e := range resp.Dir {
			c.repdir.apply(e)
		}
	}()
	return p
}

// peerGone handles a dead link. The node with the smaller name owns
// redialing (deterministic, so a heal produces one link, not a crossed
// pair); the peer stays in the known set regardless — only an explicit
// OpPeerLeave shrinks the quorum denominator.
func (c *Controller) peerGone(p *peerConn) {
	c.peerMu.Lock()
	if c.peers[p.name] == p {
		delete(c.peers, p.name)
	}
	_, stillKnown := c.known[p.name]
	c.peerMu.Unlock()
	if stillKnown && !c.closed.Load() && c.name < p.name {
		go c.redialLoop(p.name, p.addr)
	}
}

func (c *Controller) redialLoop(name, addr string) {
	delay := 100 * time.Millisecond
	for !c.closed.Load() {
		c.peerMu.Lock()
		_, stillKnown := c.known[name]
		linked := c.peers[name] != nil
		c.peerMu.Unlock()
		if !stillKnown || linked {
			return
		}
		if _, err := c.connectPeer(addr); err == nil {
			c.peerReconnects.Add(1)
			return
		}
		time.Sleep(delay)
		if delay *= 2; delay > 2*time.Second {
			delay = 2 * time.Second
		}
	}
}

// peer returns the live link to a node, or nil.
func (c *Controller) peer(name string) *peerConn {
	c.peerMu.Lock()
	defer c.peerMu.Unlock()
	return c.peers[name]
}

// peerLinks snapshots the live peer links.
func (c *Controller) peerLinks() []*peerConn {
	c.peerMu.Lock()
	defer c.peerMu.Unlock()
	links := make([]*peerConn, 0, len(c.peers))
	for _, p := range c.peers {
		links = append(links, p)
	}
	return links
}

// Peers lists the node names with live links, sorted.
func (c *Controller) Peers() []string {
	c.peerMu.Lock()
	names := make([]string, 0, len(c.peers))
	for name := range c.peers {
		names = append(names, name)
	}
	c.peerMu.Unlock()
	sort.Strings(names)
	return names
}

// KnownNodes reports how many nodes this one believes are in the cluster,
// itself included — the quorum denominator.
func (c *Controller) KnownNodes() int {
	c.peerMu.Lock()
	defer c.peerMu.Unlock()
	return len(c.known) + 1
}

// ---------------------------------------------------------------------------
// Replicated directory.

// Lookup answers which node owns the middlebox, from the local replica of
// the directory. Always local, therefore partition-safe: a minority node
// keeps serving its last synchronized (stale-but-safe) view.
func (c *Controller) Lookup(mbName string) (string, bool) {
	return c.repdir.lookup(mbName)
}

// commitOwnership records this node as mbName's owner, durably: the bumped
// entry must be acknowledged by a majority of known nodes (self included)
// before it is applied and the registration accepted. Dead nodes never ack
// but stay known, so a 3-node cluster with one crashed member still commits
// 2-of-3, while a partitioned single node fails 1-of-3 and refuses.
func (c *Controller) commitOwnership(mbName string) error {
	e := c.repdir.next(mbName, c.name)
	c.peerMu.Lock()
	total := len(c.known) + 1
	links := make([]*peerConn, 0, len(c.peers))
	for _, p := range c.peers {
		links = append(links, p)
	}
	c.peerMu.Unlock()

	acks := 1 // self
	if total > 1 {
		update := &sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpDirUpdate, Dir: []sbi.DirEntry{e}}
		results := make(chan bool, len(links))
		for _, p := range links {
			go func(p *peerConn) {
				_, err := p.call(&sbi.Message{Type: update.Type, Op: update.Op, Dir: update.Dir}, c.nodeOpts.PeerCallTimeout)
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
		c.dirRefusals.Add(1)
		return fmt.Errorf("core: node %s: cannot commit ownership of %q: %d of %d nodes acknowledged (partitioned minority refuses ownership changes)", c.name, mbName, acks, total)
	}
	c.repdir.apply(e)
	c.dirCommits.Add(1)
	return nil
}

// servePeerRequest handles one incoming peer op and replies on the link.
func (c *Controller) servePeerRequest(p *peerConn, m *sbi.Message) {
	switch m.Op {
	case sbi.OpDirUpdate:
		for _, e := range m.Dir {
			c.repdir.apply(e)
		}
		p.reply(&sbi.Message{Type: sbi.MsgDone, ID: m.ID})
	case sbi.OpDirSync:
		c.peerMu.Lock()
		values := make([]string, 0, len(c.known)+1)
		values = append(values, c.name+"="+c.advertise)
		for name, addr := range c.known {
			values = append(values, name+"="+addr)
		}
		c.peerMu.Unlock()
		sort.Strings(values)
		p.reply(&sbi.Message{Type: sbi.MsgDone, ID: m.ID, Dir: c.repdir.snapshot(), Values: values})
	case sbi.OpPeerLeave:
		p.reply(&sbi.Message{Type: sbi.MsgDone, ID: m.ID})
		c.peerMu.Lock()
		delete(c.known, p.name)
		c.peerMu.Unlock()
		p.close()
	case sbi.OpReleaseMB:
		if err := c.releaseMB(m.Name, m.Addr); err != nil {
			p.reply(&sbi.Message{Type: sbi.MsgError, ID: m.ID, Error: err.Error()})
			return
		}
		p.reply(&sbi.Message{Type: sbi.MsgDone, ID: m.ID})
	default:
		p.reply(&sbi.Message{Type: sbi.MsgError, ID: m.ID, Error: fmt.Sprintf("core: unknown peer op %q", m.Op)})
	}
}

// releaseMB gives up a locally registered middlebox to the node at toAddr by
// redirecting it, so it redials its new owner. Its routing state here —
// keys of transactions this node coordinates, orphaned events — goes
// through purgeMB when the redirected connection closes, the path every
// disconnect takes; RecoverMove restores any move it belonged to.
func (c *Controller) releaseMB(mbName, toAddr string) error {
	mb, err := c.mb(mbName)
	if err != nil {
		return err
	}
	if toAddr != "" {
		_, _ = mb.call(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpRedirect, Addr: toAddr}, c.opts.CallTimeout)
	}
	return nil
}

// Pull moves ownership of a middlebox to this node: ask the current owner
// to release (redirect) it, then wait for the middlebox to redial here; its
// registration quorum-commits the directory change. No routing state comes
// along: a move the middlebox was in mid-flight is restored by RecoverMove.
// Pulling an already-local middlebox is a no-op.
func (c *Controller) Pull(mbName string) error {
	if _, err := c.mb(mbName); err == nil {
		return nil
	}
	owner, ok := c.repdir.lookup(mbName)
	if !ok {
		return fmt.Errorf("core: node %s: no directory entry for %q", c.name, mbName)
	}
	if owner == c.name {
		return fmt.Errorf("core: node %s: directory names this node for %q but it is not registered", c.name, mbName)
	}
	return c.pullFrom(owner, mbName)
}

// pullFrom asks owner to release mbName here and waits for it to redial.
func (c *Controller) pullFrom(owner, mbName string) error {
	p := c.peer(owner)
	if p == nil {
		return fmt.Errorf("core: node %s: no live peer link to %q (owner of %q)", c.name, owner, mbName)
	}
	if _, err := p.call(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpReleaseMB, Name: mbName, Addr: c.Advertise()}, c.nodeOpts.PeerCallTimeout); err != nil {
		return err
	}
	if err := c.WaitForMB(mbName, c.nodeOpts.PullTimeout); err != nil {
		return fmt.Errorf("core: node %s: released middlebox %q never redialed: %w", c.name, mbName, err)
	}
	c.pulls.Add(1)
	return nil
}

// resolve finds a middlebox for a northbound operation, wherever the
// cluster holds it. A name registered here is used at once, and a name the
// directory has never seen fails at once. A name the directory gives to
// this node is between connections (mid-reconnect, mid-recovery), so it
// gets find-retry's window; one it gives to another node is pulled here.
func (c *Controller) resolve(name string) (*mbConn, error) {
	mb, err := c.mb(name)
	if err == nil {
		return mb, nil
	}
	owner, ok := c.repdir.lookup(name)
	if !ok {
		return nil, err
	}
	if owner != c.name {
		if err := c.pullFrom(owner, name); err != nil {
			return nil, err
		}
	}
	return c.findRetry(name)
}

// findRetry resolves a registered middlebox, waiting up to FindRetryWindow
// on the controller's WaitForMB registry for a name that transiently
// resolves nowhere (mid-pull, mid-recovery, mid-reconnect), so the
// northbound API rides out that window instead of surfacing a spurious
// unknown-middlebox error.
func (c *Controller) findRetry(name string) (*mbConn, error) {
	deadline := time.Now().Add(c.nodeOpts.FindRetryWindow)
	for {
		mb, err := c.mb(name)
		if err == nil {
			return mb, nil
		}
		c.dirMissRetries.Add(1)
		if c.WaitForMB(name, time.Until(deadline)) != nil {
			return nil, err
		}
	}
}

// resolvePair resolves both endpoints of a transaction with find.
func (c *Controller) resolvePair(srcMB, dstMB string, find func(string) (*mbConn, error)) (src, dst *mbConn, err error) {
	if src, err = find(srcMB); err != nil {
		return nil, nil, err
	}
	if dst, err = find(dstMB); err != nil {
		return nil, nil, err
	}
	return src, dst, nil
}

// RecoverMove restores a move whose coordinating node died mid-flight: its
// registry, and with it every live transaction, died with it, so whichever
// node the middleboxes reconnect to rolls the half-applied transfer back to
// "the move never happened" and runs the move again from scratch. Both
// middleboxes must be registered here, or be on their way (find-retry, no
// pull). It is safe on a move that never started or whose data phase
// finished, but not on one that completed: the rollback would delete the
// destination's only copy.
func (c *Controller) RecoverMove(srcMB, dstMB string, m packet.FieldMatch) error {
	src, dst, err := c.resolvePair(srcMB, dstMB, c.findRetry)
	if err != nil {
		return err
	}
	c.rollbackMove(src, dst, m)
	return c.moveConns(src, dst, m)
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
func (c *Controller) rollbackMove(src, dst *mbConn, m packet.FieldMatch) {
	timeout := c.opts.CallTimeout
	_, _ = src.call(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpEndTransaction, Match: m}, timeout)
	time.Sleep(c.opts.QuietPeriod)
	src.drainEvents(timeout)
	c.router.purgeOrphanMatch(src, m)
	_, _ = dst.call(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpDelSupportPerflow, Match: m}, timeout)
	_, _ = dst.call(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpDelReportPerflow, Match: m}, timeout)
}

// ---------------------------------------------------------------------------
// Lifecycle.

// Shutdown is the graceful exit: wait out in-flight transactions, announce
// departure to every peer (shrinking their quorum denominators), then tear
// the node down. The timeout bounds the transaction wait; departure
// announcements use the peer call timeout.
func (c *Controller) Shutdown(timeout time.Duration) {
	c.WaitTxns(timeout)
	var wg sync.WaitGroup
	for _, p := range c.peerLinks() {
		wg.Add(1)
		go func(p *peerConn) {
			defer wg.Done()
			_, _ = p.call(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpPeerLeave}, c.nodeOpts.PeerCallTimeout)
		}(p)
	}
	wg.Wait()
	c.Close()
}

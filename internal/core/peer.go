package core

import (
	"fmt"
	"sync"
	"time"

	"openmb/internal/sbi"
)

// peerConn is one node-to-node SBI link. It is symmetric: the same
// connection carries requests in both directions (directory updates, sync
// requests, ownership releases), each side correlating replies to its own
// outstanding calls by frame ID. The link speaks the ordinary SBI codecs —
// a JSON hello announcing Kind "peer" and the binary codec, then binary
// frames — so the wire is inspectable with the same tooling as a middlebox
// connection.
type peerConn struct {
	name string // remote node's name, learned from its hello
	addr string // remote node's advertised address, for redials
	conn *sbi.Conn
	node *Controller

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *sbi.Message
	closed  bool
}

func newPeerConn(node *Controller, name, addr string, conn *sbi.Conn) *peerConn {
	return &peerConn{node: node, name: name, addr: addr, conn: conn, pending: map[uint64]chan *sbi.Message{}}
}

// readLoop dispatches incoming frames: requests go to the node's peer-op
// handler (on their own goroutine — an ownership release blocks on a
// middlebox round trip and must not stall the link), replies complete
// outstanding calls. Runs until the connection dies, then fails every
// outstanding call and tells the node the link is gone.
func (p *peerConn) readLoop() {
	for {
		m, err := p.conn.Receive()
		if err != nil {
			break
		}
		switch m.Type {
		case sbi.MsgRequest:
			go p.node.servePeerRequest(p, m)
		case sbi.MsgDone, sbi.MsgError:
			p.mu.Lock()
			ch := p.pending[m.ID]
			delete(p.pending, m.ID)
			p.mu.Unlock()
			if ch != nil {
				ch <- m
			}
		}
	}
	p.close()
	p.node.peerGone(p)
}

// call sends one request and waits for its reply. A timeout closes the
// connection: on a healthy link replies are immediate, so a silent one is
// dead or partitioned (an asymmetric partition shows no read error at all),
// and closing forces both sides to redial fresh — the only way a latched-
// dark connection ever heals.
func (p *peerConn) call(req *sbi.Message, timeout time.Duration) (*sbi.Message, error) {
	ch := make(chan *sbi.Message, 1)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("core: peer %s: link closed", p.name)
	}
	p.nextID++
	id := p.nextID
	p.pending[id] = ch
	p.mu.Unlock()
	req.ID = id

	if err := p.conn.Send(req); err != nil {
		p.mu.Lock()
		delete(p.pending, id)
		p.mu.Unlock()
		p.close()
		return nil, fmt.Errorf("core: peer %s: %w", p.name, err)
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case m := <-ch:
		if m == nil {
			return nil, fmt.Errorf("core: peer %s: link closed", p.name)
		}
		if m.Type == sbi.MsgError {
			return nil, fmt.Errorf("core: peer %s: %s", p.name, m.Error)
		}
		return m, nil
	case <-timer.C:
		p.mu.Lock()
		delete(p.pending, id)
		p.mu.Unlock()
		p.close()
		return nil, fmt.Errorf("core: peer %s: call timed out after %v", p.name, timeout)
	}
}

// reply answers a peer request on this link. Send is internally serialized,
// so replies may race calls and other replies safely.
func (p *peerConn) reply(m *sbi.Message) {
	_ = p.conn.Send(m)
}

// close severs the link and fails every outstanding call. Idempotent.
func (p *peerConn) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	pending := p.pending
	p.pending = map[uint64]chan *sbi.Message{}
	p.mu.Unlock()
	p.conn.Close()
	for _, ch := range pending {
		ch <- nil
	}
}

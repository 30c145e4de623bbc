package core

import "sync"

// txnRegistry assigns transaction IDs and is the one record of live
// transactions: a transaction is tracked from newTxn until detach, data phase
// and quiet-period completion alike.
// IDs start at a node-specific salt in the high bits (nodeSalt), so IDs
// minted by different processes never collide: a txn ID names one
// transaction cluster-wide, the key cross-node traces are to be joined on.
type txnRegistry struct {
	mu     sync.Mutex
	nextID uint64
	live   map[uint64]*txn
	// idle is closed while live is empty; add replaces a closed one.
	idle chan struct{}
}

func newTxnRegistry(salt uint64) *txnRegistry {
	r := &txnRegistry{nextID: salt, live: map[uint64]*txn{}, idle: make(chan struct{})}
	close(r.idle)
	return r
}

// add assigns t the next ID and tracks it until detach removes it.
func (r *txnRegistry) add(t *txn) {
	r.mu.Lock()
	if len(r.live) == 0 {
		r.idle = make(chan struct{})
	}
	r.nextID++
	t.id = r.nextID
	r.live[t.id] = t
	r.mu.Unlock()
}

// remove untracks a detached transaction. Idempotent.
func (r *txnRegistry) remove(t *txn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.live[t.id]; !ok {
		return
	}
	delete(r.live, t.id)
	if len(r.live) == 0 {
		close(r.idle)
	}
}

// idleCh returns a channel that is closed once no transaction is live.
func (r *txnRegistry) idleCh() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.idle
}

// snapshot returns the live transactions.
func (r *txnRegistry) snapshot() []*txn {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*txn, 0, len(r.live))
	for _, t := range r.live {
		out = append(out, t)
	}
	return out
}

// Live reports how many transactions are currently tracked; recovery tests
// use it to prove failures leak no transactions.
func (r *txnRegistry) Live() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.live)
}

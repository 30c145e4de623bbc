package core

import "sync"

// txnRegistry assigns transaction IDs and tracks every live transaction.
// The IDs are wire-visible: a handoff payload carries them in
// sbi.Handoff.Txns, parallel to its transfer table, which is what lets a
// receiving node name the exact transactions an import re-binds — and treat
// an ID it cannot resolve as a transaction that died with a remote
// coordinator. A Node salts its controller's registry (seed), so IDs minted
// by different processes never collide.
type txnRegistry struct {
	mu     sync.Mutex
	nextID uint64
	live   map[uint64]*txn
}

func newTxnRegistry() *txnRegistry {
	return &txnRegistry{live: map[uint64]*txn{}}
}

// add assigns t the next ID and tracks it until detach removes it.
func (r *txnRegistry) add(t *txn) {
	r.mu.Lock()
	r.nextID++
	t.id = r.nextID
	r.live[t.id] = t
	r.mu.Unlock()
}

// find resolves a wire-visible transaction ID to its live transaction, or
// nil when no such transaction is tracked here. Handoff imports use it to
// re-bind transferred keys: an ID this registry cannot resolve belongs to a
// transaction coordinated by another process (or one already finished), and
// the importer treats its keys as aborted-remote.
func (r *txnRegistry) find(id uint64) *txn {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.live[id]
}

// seed offsets the ID counter by a node-specific salt in the high bits, so
// transaction IDs minted by different cluster processes never collide and a
// wire ID names its minting node unambiguously. Must be called before the
// first add; a zero salt leaves the single-process numbering unchanged.
func (r *txnRegistry) seed(salt uint64) {
	r.mu.Lock()
	r.nextID = salt
	r.mu.Unlock()
}

// remove untracks a detached transaction. Idempotent.
func (r *txnRegistry) remove(t *txn) {
	if t.id == 0 {
		return
	}
	r.mu.Lock()
	delete(r.live, t.id)
	r.mu.Unlock()
}

// Live reports how many transactions are currently tracked; recovery tests
// use it to prove failures leak no transactions.
func (r *txnRegistry) Live() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.live)
}

package core

import "sync"

// txnRegistry assigns transaction IDs and tracks every live transaction.
// A Node salts its controller's registry (seed), so IDs minted by different
// processes never collide: a txn ID names one transaction cluster-wide, the
// key cross-node traces are to be joined on.
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

// seed offsets the ID counter by a node-specific salt in the high bits, so
// transaction IDs minted by different cluster processes never collide and an
// ID names its minting node unambiguously. Must be called before the
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

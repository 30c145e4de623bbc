package mbox

import (
	"strings"
	"testing"

	"openmb/internal/packet"
	"openmb/internal/state"
)

// TestRewriteInPlaceLatchesTouch: once Rewrite has handed the logic the
// packet itself, a Touch that would raise a reprocess event must fail loudly
// — the event would carry the rewritten bytes instead of the packet as it
// arrived. A Touch that raises nothing stays legal, and a raise decided
// before the Rewrite turns it into a copy.
func TestRewriteInPlaceLatchesTouch(t *testing.T) {
	rt := New("latch", newGateLogic(), Options{}) // no packet reaches the worker
	defer rt.Close()
	pool := packet.NewPool(packet.PoolOptions{})
	p := pool.Get()
	defer p.Release()

	c := Context{rt: rt, pkt: p}
	if c.Rewrite(p) != p {
		t.Fatal("exclusive, unmarked, live packet: Rewrite copied it")
	}
	c.Touch(state.Supporting, p.FlowID()) // nothing marked: no raise, no panic
	rt.markShared(state.Supporting)
	for name, touch := range map[string]func(){
		"Touch":       func() { rt.markKey(state.Reporting, p.FlowID()); c.Touch(state.Reporting, p.FlowID()) },
		"TouchShared": func() { c.TouchShared(state.Supporting) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "Touch before Rewrite") {
					t.Errorf("%s raising after an in-place Rewrite: recovered %v, want the latch's panic", name, r)
				}
			}()
			touch()
		}()
	}

	c = Context{rt: rt, pkt: p}
	c.TouchShared(state.Supporting)
	if q := c.Rewrite(p); q == p {
		t.Error("Rewrite after a raise handed out the packet the event carries")
	} else {
		q.Release()
	}
}

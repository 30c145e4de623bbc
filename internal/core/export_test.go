package core

import "reflect"

// Test hooks exposing internals to the external test package.

// connRouters returns the routers of c's registered connections.
func connRouters(c *Controller) []*txnRouter {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rs []*txnRouter
	for _, mb := range c.mbs {
		rs = append(rs, mb.router)
	}
	return rs
}

// RouterTablesForTest counts the router shards of c's connections that hold
// storage.
func RouterTablesForTest(c *Controller) int {
	n := 0
	for _, r := range connRouters(c) {
		n += routerTables(r)
	}
	return n
}

// routerTables counts r's shards that hold storage: a flat table's slots, or
// the shared entry.
func routerTables(r *txnRouter) int {
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		if reflect.ValueOf(&sh.keys).Elem().FieldByName("slots").Cap() > 0 || sh.shared != nil {
			n++
		}
		sh.mu.Unlock()
	}
	return n
}

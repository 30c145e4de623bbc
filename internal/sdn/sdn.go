// Package sdn implements the SDN controller half of OpenMB. Control
// applications coordinate middlebox state operations (via the MB controller
// in internal/core) with network forwarding changes issued here — the
// route(k,r) call of the paper's Figure 4.
//
// The controller plays the role Floodlight plays in the paper's prototype:
// it hosts the route-management function and hides per-switch rule plumbing
// behind a path-level northbound call.
package sdn

import (
	"fmt"
	"sync"
	"time"

	"openmb/internal/netsim"
	"openmb/internal/packet"
)

// Hop names one forwarding step: the switch that matches and the neighbor
// port it outputs to.
type Hop struct {
	Switch  string
	OutPort string
}

// RouteID identifies an installed route for later removal.
type RouteID string

// Controller manages flow tables across a set of switches.
type Controller struct {
	mu       sync.Mutex
	switches map[string]*netsim.Switch
	routes   map[RouteID][]ruleRef
	seq      uint64
	// updateDelay artificially delays rule installation, modeling the
	// controller-to-switch propagation window the paper's correctness
	// arguments revolve around. Zero by default.
	updateDelay time.Duration
	// updates counts northbound route operations.
	updates uint64
}

type ruleRef struct {
	sw *netsim.Switch
	id string
}

// NewController returns a controller managing no switches.
func NewController() *Controller {
	return &Controller{switches: map[string]*netsim.Switch{}, routes: map[RouteID][]ruleRef{}}
}

// AddSwitch registers a switch with the controller.
func (c *Controller) AddSwitch(sw *netsim.Switch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.switches[sw.Name()] = sw
}

// SetUpdateDelay sets an artificial delay applied before each rule
// installation, modeling controller-to-switch propagation latency.
func (c *Controller) SetUpdateDelay(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.updateDelay = d
}

// Route installs forwarding state so that packets matching m follow the
// given hops: route(k, r) in the paper. Rules are installed from the last
// hop backward — the standard discipline that avoids transient blackholes —
// and all carry the given priority. It returns an ID for Unroute.
func (c *Controller) Route(m packet.FieldMatch, priority int, hops []Hop) (RouteID, error) {
	c.mu.Lock()
	c.seq++
	id := RouteID(fmt.Sprintf("route-%d", c.seq))
	delay := c.updateDelay
	c.updates++
	swByName := make(map[string]*netsim.Switch, len(hops))
	for _, h := range hops {
		sw, ok := c.switches[h.Switch]
		if !ok {
			c.mu.Unlock()
			return "", fmt.Errorf("sdn: unknown switch %q", h.Switch)
		}
		swByName[h.Switch] = sw
	}
	c.mu.Unlock()

	var refs []ruleRef
	for i := len(hops) - 1; i >= 0; i-- {
		h := hops[i]
		if delay > 0 {
			time.Sleep(delay)
		}
		r := swByName[h.Switch].Install(netsim.Rule{
			ID:       fmt.Sprintf("%s-hop%d", id, i),
			Priority: priority,
			Match:    m,
			OutPorts: []string{h.OutPort},
		})
		refs = append(refs, ruleRef{sw: swByName[h.Switch], id: r.ID})
	}
	c.mu.Lock()
	c.routes[id] = refs
	c.mu.Unlock()
	return id, nil
}

// Unroute removes all rules of a previously installed route.
func (c *Controller) Unroute(id RouteID) error {
	c.mu.Lock()
	refs, ok := c.routes[id]
	if ok {
		delete(c.routes, id)
		c.updates++
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("sdn: unknown route %q", id)
	}
	for _, ref := range refs {
		ref.sw.Remove(ref.id)
	}
	return nil
}

// Barrier returns once all previously issued updates have been applied.
// Rule installation is synchronous in this implementation, so Barrier only
// provides the ordering point control applications sequence against.
func (c *Controller) Barrier() {}

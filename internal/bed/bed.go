// Package bed wires complete OpenMB testbeds: a simulated network with
// switches and hosts, an SDN controller, the OpenMB middlebox controller
// over an in-memory transport, and middlebox runtimes attached to both.
// Control-application tests, the baseline comparisons, and the evaluation
// harness all build their scenarios on it — it is the software analogue of
// the paper's testbed (one OpenFlow switch, a controller server, and six
// middlebox desktops).
package bed

import (
	"fmt"
	"time"

	"openmb/internal/core"
	"openmb/internal/mbox"
	"openmb/internal/netsim"
	"openmb/internal/obs"
	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/sdn"
)

// Bed is one assembled testbed.
type Bed struct {
	Net  *netsim.Network
	SDN  *sdn.Controller
	Ctrl *core.Controller
	TR   *sbi.MemTransport
	// Pool is the bed's packet pool. InjectTrace draws every injected
	// packet from it instead of sharing the trace's heap packets with the
	// network; harness code injecting by hand may clone from it too.
	Pool *packet.Pool

	mbs map[string]*mbox.Runtime
}

// ctrlAddr is the in-memory controller address.
const ctrlAddr = "openmb-controller"

// New assembles an empty testbed with the given controller options.
func New(opts core.Options) (*Bed, error) {
	b := &Bed{
		Net:  netsim.New(),
		SDN:  sdn.NewController(),
		Ctrl: core.NewController(opts),
		TR:   sbi.NewMemTransport(),
		Pool: packet.NewPool(packet.PoolOptions{}),
		mbs:  map[string]*mbox.Runtime{},
	}
	if err := b.Ctrl.Serve(b.TR, ctrlAddr); err != nil {
		return nil, err
	}
	return b, nil
}

// AddSwitch creates a switch, attaches it to the network, and registers it
// with the SDN controller.
func (b *Bed) AddSwitch(name string) *netsim.Switch {
	sw := netsim.NewSwitch(b.Net, name)
	b.SDN.AddSwitch(sw)
	return sw
}

// AddHost creates a host endpoint.
func (b *Bed) AddHost(name string, limit int) *netsim.Host {
	return netsim.NewHost(b.Net, name, limit)
}

// AddMB hosts logic in a runtime, attaches it to the network under name,
// connects it to the OpenMB controller, and waits for registration. If
// forwardTo is non-empty, packets the middlebox emits are sent to that
// neighbor (the link must be created with Connect before traffic flows).
func (b *Bed) AddMB(name string, logic mbox.Logic, forwardTo string) (*mbox.Runtime, error) {
	rt := mbox.New(name, logic, mbox.Options{})
	if forwardTo != "" {
		rt.SetForwardBurst(func(ps []*packet.Packet) {
			// Best-effort: a missing link drops, like a real port
			// with no cable.
			_ = b.Net.SendBurst(name, forwardTo, ps)
		})
	}
	b.Net.Attach(name, rt)
	if err := rt.Connect(b.TR, ctrlAddr); err != nil {
		rt.Close()
		return nil, err
	}
	if err := b.Ctrl.WaitForMB(name, 5*time.Second); err != nil {
		rt.Close()
		return nil, err
	}
	b.mbs[name] = rt
	return rt, nil
}

// AddStandaloneMB hosts logic in a runtime attached to the network but NOT
// connected to the controller — the "unmodified middlebox" configuration of
// the correctness experiments (§8.2), and the baselines' middleboxes.
func (b *Bed) AddStandaloneMB(name string, logic mbox.Logic, forwardTo string) *mbox.Runtime {
	rt := mbox.New(name, logic, mbox.Options{})
	if forwardTo != "" {
		rt.SetForwardBurst(func(ps []*packet.Packet) {
			_ = b.Net.SendBurst(name, forwardTo, ps)
		})
	}
	b.Net.Attach(name, rt)
	b.mbs[name] = rt
	return rt
}

// Colocate rewires from's emit path to hand packets directly to to's
// ingress — the shared-memory fast path between middleboxes hosted on the
// same node. Whole emitted bursts go straight into the peer runtime's ingress
// ring in a single ring synchronization, skipping the simulated wire entirely; the paper's co-located NF
// chains get exactly this hand-off instead of a NIC round-trip. Both
// middleboxes must already be added; any forwardTo given at add time is
// overridden.
func (b *Bed) Colocate(from, to string) error {
	src, ok := b.mbs[from]
	if !ok {
		return fmt.Errorf("bed: colocate: no middlebox %q", from)
	}
	dst, ok := b.mbs[to]
	if !ok {
		return fmt.Errorf("bed: colocate: no middlebox %q", to)
	}
	src.SetForwardBurst(dst.HandleBurst)
	return nil
}

// Connect links two attached endpoints.
func (b *Bed) Connect(x, y string, latency time.Duration) error {
	return b.Net.Connect(x, y, latency)
}

// MB returns a previously added middlebox runtime.
func (b *Bed) MB(name string) *mbox.Runtime { return b.mbs[name] }

// Collect implements obs.Collector: the whole testbed's series — the
// controller (counters, op-window histograms, per-conn wire counters),
// every middlebox runtime, the network, and the packet pool's accounting.
// Registering the bed into an obs.Registry makes the full stack scrapeable
// in one call.
func (b *Bed) Collect(e *obs.Emitter) {
	b.Ctrl.Collect(e)
	for _, rt := range b.mbs {
		rt.Collect(e)
	}
	b.Net.Collect(e)
	obs.PoolCollector("bed", b.Pool.Stats).Collect(e)
}

// Quiesce waits until the network has no packets in flight AND every
// middlebox runtime has drained, stable across consecutive checks. Returns
// false on timeout.
func (b *Bed) Quiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		idle := b.Net.Quiesce(timeoutRemaining(deadline))
		for _, rt := range b.mbs {
			if !rt.Drain(timeoutRemaining(deadline)) {
				idle = false
			}
		}
		// Drains may have emitted packets; confirm the network is
		// still idle afterwards.
		if idle && b.Net.Quiesce(timeoutRemaining(deadline)) {
			allIdle := true
			for _, rt := range b.mbs {
				if !rt.Drain(10 * time.Millisecond) {
					allIdle = false
				}
			}
			if allIdle {
				return true
			}
		}
	}
	return false
}

func timeoutRemaining(deadline time.Time) time.Duration {
	d := time.Until(deadline)
	if d < time.Millisecond {
		return time.Millisecond
	}
	return d
}

// InjectTrace replays packets into the network at an entry endpoint,
// optionally pacing them (pace = delay between packets; 0 replays as fast
// as possible). Each injected packet is drawn from the bed's pool (a recycled
// clone of the trace packet), so the trace itself is never mutated or
// retained by endpoints and steady-state replay allocates nothing.
func (b *Bed) InjectTrace(at string, pkts []*packet.Packet, pace time.Duration) error {
	for _, p := range pkts {
		if err := b.Net.Inject(at, b.Pool.Clone(p)); err != nil {
			// Inject consumed the clone's reference even on error.
			return fmt.Errorf("bed: inject: %w", err)
		}
		if pace > 0 {
			time.Sleep(pace)
		}
	}
	return nil
}

// Close shuts down the network, middleboxes, and the controller. The
// network stops first and its in-flight deliveries are waited out, so every
// packet a link pump will ever hand to a runtime has been enqueued before
// the runtimes drain — otherwise a delivery racing a runtime's close could
// strand a borrowed pooled packet unreleased.
func (b *Bed) Close() {
	b.Net.Stop()
	b.Net.Quiesce(5 * time.Second)
	for _, rt := range b.mbs {
		rt.Close()
	}
	b.Ctrl.Close()
}

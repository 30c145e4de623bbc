// Package netsim is the network substrate OpenMB runs on: software switches
// with priority flow tables, links with configurable latency, and host
// endpoints. It substitutes for the paper's OpenFlow testbed (an HP ProCurve
// 5400 switch plus desktops) while preserving the property the evaluation
// depends on: packets are in flight asynchronously, so state operations and
// routing updates race exactly as they do on a physical network.
//
// # Data path and the borrow discipline
//
// Packets are handed between endpoints by pointer; nothing on the data path
// marshals. Every link is a batched ring buffer, and packets drawn from a
// packet.Pool are recycled when their last reference is released. The
// ownership contract:
//
//   - Send and Inject consume the caller's reference: on success it travels
//     with the packet, on error it is released.
//   - Endpoint.HandleBurst receives borrowed packets and owns one reference
//     to each: it must Release it, pass it on (a further Send transfers
//     ownership), or keep it past return. The slice is the link's.
//   - Fault hooks run before delivery and must not retain the packet;
//     duplication clones via the packet's pool.
//
// Heap packets (packet.New, a nil pool) make every Retain/Release a no-op and
// travel over the same rings.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"openmb/internal/obs"
	"openmb/internal/packet"
)

// Endpoint is anything attachable to the network: a switch, a host, or a
// middlebox runtime. HandleBurst is invoked on a link-delivery goroutine with
// a batch of packets in link order and must not block indefinitely. Each
// packet is borrowed: the endpoint owns exactly one reference per packet and
// must Release it, forward it (transferring ownership), or keep it beyond
// return. The slice itself is the link's and must not be retained past the
// call.
type Endpoint interface {
	HandleBurst(ps []*packet.Packet)
}

// Fault is a link-level fault injection verdict.
type Fault int

// Fault verdicts.
const (
	FaultNone Fault = iota
	FaultDrop
	FaultDuplicate
)

// Ingress is the pseudo-port external packet arrivals enter through: Inject
// enqueues on the (Ingress -> endpoint) link, which delivers on a pump
// goroutine exactly like any other link. SetFault(Ingress, name, hook)
// therefore fault-injects externally arriving traffic too.
const Ingress = ""

// Options configures a Network.
type Options struct {
	// RingSize is the per-link queue capacity in packets (default 4096).
	RingSize int
}

// Network owns endpoints and links. All methods are safe for concurrent use.
type Network struct {
	opts Options

	mu        sync.RWMutex
	endpoints map[string]Endpoint
	links     map[string]map[string]*link
	stopped   bool

	// inflight counts packets queued on links plus deliveries in
	// progress; Quiesce waits for it to reach zero.
	inflight atomic.Int64
	// idle holds a token posted whenever inflight reaches zero; Quiesce
	// waits on it instead of polling.
	idle chan struct{}
	// delivered counts total link deliveries.
	delivered atomic.Uint64
	// dropped counts fault-injected drops.
	dropped atomic.Uint64
}

// New returns an empty network with default options.
func New() *Network { return NewWithOptions(Options{}) }

// NewWithOptions returns an empty network with an explicit configuration.
func NewWithOptions(opts Options) *Network {
	if opts.RingSize <= 0 {
		opts.RingSize = 4096
	}
	return &Network{
		opts:      opts,
		endpoints: map[string]Endpoint{},
		links:     map[string]map[string]*link{},
		idle:      make(chan struct{}, 1),
	}
}

// ErrNoSuchEndpoint is returned for sends to unattached names.
var ErrNoSuchEndpoint = errors.New("netsim: no such endpoint")

// ErrNoLink is returned for sends between unconnected endpoints.
var ErrNoLink = errors.New("netsim: no link between endpoints")

var (
	errStopped    = errors.New("netsim: network stopped")
	errLinkClosed = errors.New("netsim: link closed")
)

// Attach registers an endpoint under name. Attaching a name twice replaces
// the endpoint (used by failover scenarios to swap in a replacement MB).
// Attach also creates the endpoint's ingress link, so Inject and
// SetFault(Ingress, name, ...) work from the moment of attachment.
func (n *Network) Attach(name string, ep Endpoint) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.endpoints[name] = ep
	if !n.stopped {
		n.addLink(Ingress, name, 0)
	}
}

// Connect creates a bidirectional link between two attached endpoints with
// the given one-way latency.
func (n *Network) Connect(a, b string, latency time.Duration) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.endpoints[a]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchEndpoint, a)
	}
	if _, ok := n.endpoints[b]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchEndpoint, b)
	}
	n.addLink(a, b, latency)
	n.addLink(b, a, latency)
	return nil
}

func (n *Network) addLink(from, to string, latency time.Duration) {
	if n.links[from] == nil {
		n.links[from] = map[string]*link{}
	}
	if _, ok := n.links[from][to]; ok {
		return
	}
	l := &link{
		net: n, from: from, to: to, latency: latency,
		ring: newPktRing(n.opts.RingSize),
	}
	n.links[from][to] = l
	go l.pump()
}

// SetFault installs a fault-injection hook on the from->to link. The hook
// runs for every packet; return FaultDrop to discard or FaultDuplicate to
// deliver twice. Pass nil to clear. Use from = Ingress to hook externally
// injected packets.
func (n *Network) SetFault(from, to string, hook func(*packet.Packet) Fault) error {
	n.mu.RLock()
	l := n.linkLocked(from, to)
	n.mu.RUnlock()
	if l == nil {
		return fmt.Errorf("%w: %s->%s", ErrNoLink, from, to)
	}
	l.fault.Store(&hook)
	return nil
}

func (n *Network) linkLocked(from, to string) *link {
	if m := n.links[from]; m != nil {
		return m[to]
	}
	return nil
}

// Send queues p on the from->to link: a burst of one through SendBurst. The
// packet is delivered to the remote endpoint after the link latency. Like
// SendBurst, Send consumes the caller's reference.
func (n *Network) Send(from, to string, p *packet.Packet) error {
	return n.SendBurst(from, to, []*packet.Packet{p})
}

// SendBurst queues a whole batch on the from->to link in one ring
// synchronization, blocking while the link queue is full (link-level
// backpressure). It consumes the caller's references: on success they
// travel with the packets, on error the undelivered tail is released. The
// slice itself stays the caller's.
func (n *Network) SendBurst(from, to string, ps []*packet.Packet) error {
	if len(ps) == 0 {
		return nil
	}
	n.mu.RLock()
	l := n.linkLocked(from, to)
	stopped := n.stopped
	n.mu.RUnlock()
	if stopped || l == nil {
		for _, p := range ps {
			p.Release()
		}
		if stopped {
			return errStopped
		}
		return fmt.Errorf("%w: %s->%s", ErrNoLink, from, to)
	}
	n.inflight.Add(int64(len(ps)))
	if rejected := l.ring.pushBatch(ps); rejected > 0 {
		for _, p := range ps[len(ps)-rejected:] {
			p.Release()
		}
		n.retire(rejected)
		return errLinkClosed
	}
	return nil
}

// Inject delivers p to the named endpoint, modeling an external packet
// arrival (trace replay at a host or border port). It is a burst of one on
// the endpoint's ingress link and therefore shares Send's delivery path: the
// packet arrives asynchronously on the link pump goroutine, after any
// SetFault(Ingress, at, ...) hook. Like Send, Inject consumes the caller's
// reference.
func (n *Network) Inject(at string, p *packet.Packet) error {
	err := n.SendBurst(Ingress, at, []*packet.Packet{p})
	if errors.Is(err, ErrNoLink) {
		// Attach creates every endpoint's ingress link, so a missing
		// one means a missing endpoint.
		return fmt.Errorf("%w: %q", ErrNoSuchEndpoint, at)
	}
	return err
}

// retire takes k packets out of the in-flight count, posting the idle token
// when the count reaches zero.
func (n *Network) retire(k int) {
	if n.inflight.Add(int64(-k)) == 0 {
		n.signalIdle()
	}
}

func (n *Network) signalIdle() {
	select {
	case n.idle <- struct{}{}:
	default:
	}
}

// Quiesce blocks until no packets are queued or being delivered, or the
// timeout elapses. It returns true if the network went idle. Endpoints with
// internal queues (middlebox runtimes) have their own drain methods; harness
// code alternates between the two until stable. The idle token is posted
// when the in-flight count reaches zero, so a waiter that saw packets in
// flight finds it; one that sees the network idle passes it on to the next
// waiter.
func (n *Network) Quiesce(timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for n.inflight.Load() != 0 {
		select {
		case <-n.idle:
		case <-deadline.C:
			return n.inflight.Load() == 0
		}
	}
	n.signalIdle()
	return true
}

// Delivered returns the count of link deliveries since creation.
func (n *Network) Delivered() uint64 { return n.delivered.Load() }

// Dropped returns the count of fault-injected drops.
func (n *Network) Dropped() uint64 { return n.dropped.Load() }

// Collect implements obs.Collector: link delivery/drop totals and the
// in-flight gauge.
func (n *Network) Collect(e *obs.Emitter) {
	e.Counter("openmb_net_delivered_total", "Link deliveries since creation.", n.delivered.Load())
	e.Counter("openmb_net_dropped_total", "Fault-injected link drops.", n.dropped.Load())
	e.Gauge("openmb_net_inflight", "Packets queued on links or being delivered.", float64(n.inflight.Load()))
}

// Stop closes all links. Sends after Stop fail; packets still queued are
// released undelivered.
func (n *Network) Stop() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return
	}
	n.stopped = true
	for _, m := range n.links {
		for _, l := range m {
			l.ring.close()
		}
	}
}

type link struct {
	net     *Network
	from    string
	to      string
	latency time.Duration
	ring    *pktRing
	fault   atomic.Pointer[func(*packet.Packet) Fault]
}

// ringBatch is how many packets the pump takes per ring synchronization.
const ringBatch = 64

// pump drains the link's ring one popped batch at a time. A latency-free,
// fault-free link hands the batch over as it is; any other link runs
// latency and verdicts per packet (process). Every batch is retired from
// the in-flight count in one step, after its delivery.
func (l *link) pump() {
	batch := make([]*packet.Packet, ringBatch)
	for {
		k, closed := l.ring.popBatch(batch)
		if k == 0 {
			return // closed and drained
		}
		switch {
		case closed:
			for _, p := range batch[:k] {
				p.Release()
			}
		case l.latency == 0 && l.hook() == nil:
			l.deliver(batch[:k])
		default:
			l.process(batch[:k])
		}
		clear(batch[:k])
		l.net.retire(k)
	}
}

func (l *link) hook() func(*packet.Packet) Fault {
	if h := l.fault.Load(); h != nil {
		return *h
	}
	return nil
}

// process applies latency and the fault hook to each packet of ps in order,
// compacting the survivors in place, and delivers them. A duplicate's clone
// starts the next run, right after its original; on a latency link each
// packet goes out alone, once its own delay has elapsed. It owns the
// references in ps and disposes of each on every path.
func (l *link) process(ps []*packet.Packet) {
	out := ps[:0] // len(out) never passes the read index
	for _, p := range ps {
		if l.latency > 0 {
			time.Sleep(l.latency)
		}
		verdict := FaultNone
		if h := l.hook(); h != nil {
			verdict = h(p)
		}
		switch verdict {
		case FaultDrop:
			l.net.dropped.Add(1)
			p.Release()
			continue
		case FaultDuplicate:
			// Clone before the original is delivered: delivering
			// transfers ownership, and a pooled packet may be released
			// and recycled by the endpoint before a later Clone would
			// run.
			dup := p.Clone()
			l.deliver(append(out, p))
			out = append(out[:0], dup)
		default:
			out = append(out, p)
		}
		if l.latency > 0 {
			l.deliver(out)
			out = out[:0]
		}
	}
	l.deliver(out)
}

// deliver hands ps (and their references) to the link's destination in one
// HandleBurst call, or releases them when nothing is attached under its
// name.
func (l *link) deliver(ps []*packet.Packet) {
	if len(ps) == 0 {
		return
	}
	l.net.mu.RLock()
	ep := l.net.endpoints[l.to]
	l.net.mu.RUnlock()
	if ep == nil {
		for _, p := range ps {
			p.Release()
		}
		return
	}
	ep.HandleBurst(ps)
	l.net.delivered.Add(uint64(len(ps)))
}

// DropFraction returns a fault hook dropping packets with probability p,
// using a deterministic seeded source.
func DropFraction(p float64, seed int64) func(*packet.Packet) Fault {
	r := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	return func(*packet.Packet) Fault {
		mu.Lock()
		defer mu.Unlock()
		if r.Float64() < p {
			return FaultDrop
		}
		return FaultNone
	}
}

package main

import (
	"fmt"
	"net/netip"
	"runtime"
	"sync/atomic"
	"time"

	"openmb/internal/mbox"
	"openmb/internal/mbox/ips"
	"openmb/internal/mbox/monitor"
	"openmb/internal/mbox/nat"
	"openmb/internal/packet"
)

const (
	chainBurst = 64   // packets per injected burst
	chainCap   = 2048 // packets in flight, far below the 8192-slot rings
	// stallAfter is how long a closed loop waits without progress before
	// it counts the missing packets as failed instead of hanging.
	stallAfter = 5 * time.Second
)

// tapMonitor makes the passive monitor a chain hop: it taps every packet as
// on a mirror port, then forwards it.
type tapMonitor struct{ *monitor.Monitor }

func (t tapMonitor) Process(ctx *mbox.Context, p *packet.Packet) {
	t.Monitor.Process(ctx, p)
	ctx.Emit(p)
}

func (t tapMonitor) ProcessBurst(ctxs []mbox.Context, pkts []*packet.Packet) {
	t.Monitor.ProcessBurst(ctxs, pkts)
	for i := range pkts {
		ctxs[i].Emit(pkts[i])
	}
}

// sink terminates a chain: it counts deliveries and stamps the time each
// injected burst's last packet arrives. It runs on the last hop's worker
// goroutine; the generator touches the burst fields only while the chain is
// empty, and the ring hand-off and the delivered count order the two.
type sink struct {
	delivered atomic.Uint64
	t0        time.Time

	burstSize uint64
	nextEdge  uint64  // delivered count that completes the next burst
	burstIdx  uint64  // index of that burst
	injectAt  []int64 // ns since t0, ring indexed by burst
	sojourn   []int64 // ns from injection to last packet, per completed burst
}

// injectRing is how many bursts' injection times are remembered; at most
// chainCap/chainBurst = 32 bursts are ever in flight.
const injectRing = 64

func (s *sink) deliver(n int) {
	// The count is published last: a generator that sees it reach its
	// target may re-arm the burst fields at once.
	d := s.delivered.Load() + uint64(n)
	for d >= s.nextEdge {
		now := time.Since(s.t0).Nanoseconds()
		if len(s.sojourn) < cap(s.sojourn) {
			s.sojourn = append(s.sojourn, now-s.injectAt[s.burstIdx%injectRing])
		}
		s.burstIdx++
		s.nextEdge += s.burstSize
	}
	s.delivered.Store(d)
}

// chainRig is one or more runtimes wired hop to hop by direct handoff
// (SetForwardBurst into the next HandleBurst), fed from templates.
type chainRig struct {
	pool  *packet.Pool
	tmpl  []*packet.Packet
	order []int32 // flow visit order, a seeded permutation repeated
	next  int
	rts   []*mbox.Runtime
	sink  *sink
	sent  uint64
	mon   *monitor.Monitor
	nat   *nat.NAT
	ips   *ips.IPS
	// ping keeps one burst in flight instead of saturating; its traced run
	// adds a one-packet-in-flight part.
	ping bool

	depthMax atomic.Int64
}

// chainTemplates builds n distinct flows from the seed: internal (10/8)
// sources so the NAT translates them, a non-HTTP port so the IPS analyzers
// do the same work for every packet, and a 64-byte payload that can match
// no monitor fingerprint.
func chainTemplates(e *env, n int) ([]*packet.Packet, []int32) {
	rng := e.rng(1)
	seen := map[[6]byte]bool{}
	tmpl := make([]*packet.Packet, 0, n)
	for len(tmpl) < n {
		a := [6]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
		port := uint16(1024 + rng.Intn(64000))
		a[3], a[4] = byte(port>>8), byte(port)
		if seen[a] {
			continue
		}
		seen[a] = true
		payload := make([]byte, 64)
		payload[0] = 'x'
		for i := 1; i < len(payload); i++ {
			payload[i] = byte('a' + rng.Intn(26))
		}
		tmpl = append(tmpl, &packet.Packet{
			SrcIP:   netip.AddrFrom4([4]byte{10, a[0], a[1], a[2]}),
			DstIP:   netip.AddrFrom4([4]byte{8, 8, byte(rng.Intn(4)), 8}),
			Proto:   packet.ProtoTCP,
			SrcPort: port, DstPort: 8080,
			Flags: packet.FlagACK, TTL: 64,
			Payload: payload,
		})
	}
	order := make([]int32, n)
	for i, v := range rng.Perm(n) {
		order[i] = int32(v)
	}
	return tmpl, order
}

// newChainRig wires the given logics into a chain ending in a counting sink.
func newChainRig(tmpl []*packet.Packet, order []int32, logics ...mbox.Logic) *chainRig {
	r := &chainRig{
		pool: packet.NewPool(packet.PoolOptions{}),
		tmpl: tmpl, order: order,
		sink: &sink{t0: time.Now(), injectAt: make([]int64, injectRing)},
	}
	for i, l := range logics {
		r.rts = append(r.rts, mbox.New(fmt.Sprintf("hop%d-%s", i, l.Kind()), l, mbox.Options{}))
	}
	for i, rt := range r.rts {
		if i+1 < len(r.rts) {
			next := r.rts[i+1]
			rt.SetForward(next.HandlePacket)
			rt.SetForwardBurst(next.HandleBurst)
			continue
		}
		rt.SetForward(func(p *packet.Packet) {
			p.Release()
			r.sink.deliver(1)
		})
		rt.SetForwardBurst(func(ps []*packet.Packet) {
			for _, p := range ps {
				p.Release()
			}
			r.sink.deliver(len(ps))
		})
	}
	return r
}

// newFullChain is monitor -> NAT -> IPS over the workload's flows.
func newFullChain(e *env, flows int) *chainRig {
	tmpl, order := chainTemplates(e, flows)
	mon, n, i := monitor.New(), nat.New(netip.MustParseAddr("192.0.2.1")), ips.New()
	r := newChainRig(tmpl, order, tapMonitor{mon}, n, i)
	r.mon, r.nat, r.ips = mon, n, i
	return r
}

// arm resets the sink's burst bookkeeping for a phase of bursts of size n,
// expecting at most samples completed bursts. The chain must be empty.
func (r *chainRig) arm(n, samples int) {
	s := r.sink
	s.burstSize = uint64(n)
	s.nextEdge = s.delivered.Load() + uint64(n)
	s.burstIdx = 0
	s.sojourn = make([]int64, 0, samples)
}

// ops turns the bursts the sink saw complete since arm into operations.
func (r *chainRig) ops() []op {
	out := make([]op, len(r.sink.sojourn))
	for i, ns := range r.sink.sojourn {
		out[i] = op{ms: float64(ns) / 1e6, busy: float64(ns) / 1e9, work: float64(r.sink.burstSize)}
	}
	return out
}

// fill clones the next n flows of the visit order into buf.
func (r *chainRig) fill(buf []*packet.Packet) {
	for i := range buf {
		buf[i] = r.pool.Clone(r.tmpl[r.order[r.next]])
		if r.next++; r.next == len(r.order) {
			r.next = 0
		}
	}
}

// awaitDelivered spins until the sink has counted want packets, yielding the
// processor to the hop workers; it gives up stallAfter without progress.
func (r *chainRig) awaitDelivered(want uint64) bool {
	last, lastAt := r.sink.delivered.Load(), time.Now()
	for spins := 0; ; spins++ {
		d := r.sink.delivered.Load()
		if d >= want {
			return true
		}
		if spins&1023 == 0 {
			if d != last {
				last, lastAt = d, time.Now()
			} else if time.Since(lastAt) > stallAfter {
				return false
			}
		}
		runtime.Gosched()
	}
}

// saturate injects bursts closed-loop with at most chainCap packets in
// flight for d (or exactly pkts packets when pkts > 0) and waits for the
// tail.
func (r *chainRig) saturate(e *env, d time.Duration, pkts int) bool {
	var buf [chainBurst]*packet.Packet
	start := time.Now()
	var burst uint64
	injected := 0
	ok := true
	for ok {
		now := time.Now()
		if pkts > 0 && injected >= pkts || pkts == 0 && now.Sub(start) >= d {
			break
		}
		r.fill(buf[:])
		sp := e.rec.begin("inject", nil, int64(burst))
		r.sink.injectAt[burst%injectRing] = now.Sub(r.sink.t0).Nanoseconds()
		r.rts[0].HandleBurst(buf[:])
		sp.end()
		burst++
		injected += chainBurst
		r.sent += chainBurst
		e.attempted.Add(chainBurst)
		if r.sent > chainCap {
			sp = e.rec.begin("deliver_wait", nil, int64(burst))
			ok = r.awaitDelivered(r.sent - chainCap + chainBurst)
			sp.end()
		}
	}
	if ok {
		ok = r.awaitDelivered(r.sent)
	}
	if !ok {
		e.fail(int64(r.sent-r.sink.delivered.Load()), "chain stalled: %d of %d packets delivered", r.sink.delivered.Load(), r.sent)
	}
	return ok
}

// pingFor keeps exactly one burst of n packets in flight for d: inject,
// wait for its last packet, repeat. Sojourns land in the sink.
func (r *chainRig) pingFor(e *env, d time.Duration, n int, wait string) bool {
	buf := make([]*packet.Packet, n)
	end := time.Now().Add(d)
	for burst := uint64(0); ; burst++ {
		now := time.Now()
		if !now.Before(end) {
			return true
		}
		r.fill(buf)
		sp := e.rec.begin("inject", nil, int64(burst))
		r.sink.injectAt[burst%injectRing] = now.Sub(r.sink.t0).Nanoseconds()
		r.rts[0].HandleBurst(buf)
		sp.end()
		r.sent += uint64(n)
		e.attempted.Add(int64(n))
		sp = e.rec.begin(wait, nil, int64(burst))
		ok := r.awaitDelivered(r.sent)
		sp.end()
		if !ok {
			e.fail(int64(r.sent-r.sink.delivered.Load()), "chain stalled: %d of %d packets delivered", r.sink.delivered.Load(), r.sent)
			return false
		}
	}
}

// watchRings samples every hop's ingress depth until stop closes.
func (r *chainRig) watchRings(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			for _, rt := range r.rts {
				if d := int64(rt.RingStats().Live); d > r.depthMax.Load() {
					r.depthMax.Store(d)
				}
			}
		}
	}
}

func (r *chainRig) run(e *env, d time.Duration) phase {
	if e.tracing() {
		stop, done := make(chan struct{}), make(chan struct{})
		go r.watchRings(stop, done)
		defer func() { close(stop); <-done }()
	}
	var p phase
	before, sent0 := readUsage(), r.sent
	slice := d / windows
	single := r.ping && e.tracing()
	var one phase
	for w := 0; w < windows; w++ {
		// Latency is one burst in flight. The saturating workloads give it
		// the last quarter of every window: a burst's sojourn under
		// saturation is only the in-flight cap over the rate, the same
		// number again.
		pingFor := slice
		switch {
		case !r.ping:
			pingFor = slice / 4
			t0, sent := time.Now(), r.sent
			r.arm(chainBurst, 0)
			if !r.saturate(e, slice-pingFor, 0) {
				return p
			}
			pkts := float64(r.sent - sent)
			p.rates = append(p.rates, pkts/time.Since(t0).Seconds()/1e6)
			p.work += pkts
		case single:
			pingFor = slice * 3 / 4
		}
		r.arm(chainBurst, int(pingFor.Seconds()*40000)+1024)
		ok := r.pingFor(e, pingFor, chainBurst, "deliver_wait")
		ops := r.ops()
		p.addLatency(ops)
		if r.ping {
			var pkts, busy float64
			for _, o := range ops {
				pkts += o.work
				busy += o.busy
			}
			p.rates = append(p.rates, pkts/busy/1e6)
		}
		if ok && single {
			r.arm(1, int((slice/4).Seconds()*400000)+1024)
			ok = r.pingFor(e, slice/4, 1, "deliver_wait.single")
			one.addLatency(r.ops())
		}
		if !ok {
			return p
		}
	}
	p.use = readUsage().since(before)
	p.work = float64(r.sent - sent0)
	p.extra = map[string][]float64{"single_ms": one.ms}
	return p
}

func (r *chainRig) layer(e *env, p phase) {
	var drops uint64
	for _, rt := range r.rts {
		drops += rt.Metrics().DroppedPackets
	}
	e.set("mbox.ring_drops", float64(drops))
	e.set("mbox.ring_depth_max", float64(r.depthMax.Load()))
	if p.work > 0 {
		e.set("chain.allocs_per_pkt", float64(p.use.mallocs)/p.work)
		e.set("chain.bytes_per_pkt", float64(p.use.bytes)/p.work)
		e.set("chain.cpu_ns_per_pkt", float64(p.use.cpu.Nanoseconds())/p.work)
	}
	if one := p.extra["single_ms"]; len(one) > 0 {
		e.set("mbox.pkt_sojourn_p50_us", quantile(one, 0.5)*1e3)
		e.set("mbox.pkt_sojourn_p90_us", quantile(one, 0.9)*1e3)
	}
}

// verify asserts that nothing was lost or leaked and that every hop holds
// exactly one record per flow: NAT port exhaustion and ring overflow both
// drop silently, and this is where they show.
func (r *chainRig) verify(e *env) {
	flows := len(r.tmpl)
	delivered := r.sink.delivered.Load()
	e.check(delivered == r.sent, "chain delivered %d of %d injected", delivered, r.sent)
	for _, rt := range r.rts {
		rt.Drain(2 * time.Second)
		if d := rt.Metrics().DroppedPackets; d != 0 {
			e.fail(int64(d), "%s dropped %d packets at its ring", rt.Name(), d)
		}
	}
	if out := r.pool.Outstanding(); out != 0 {
		e.check(false, "packet pool: %d packets never released", out)
	}
	if r.nat != nil {
		e.check(r.nat.MappingCount() == flows, "NAT mappings %d != flows %d", r.nat.MappingCount(), flows)
		e.check(r.ips.ConnCount() == flows, "IPS connections %d != flows %d", r.ips.ConnCount(), flows)
		e.check(r.mon.FlowCount() == flows, "monitor flows %d != flows %d", r.mon.FlowCount(), flows)
		if got := r.mon.TotalPerflowPackets(); got != r.sent {
			e.check(false, "monitor counted %d packets, %d injected", got, r.sent)
		}
	}
}

func (r *chainRig) close() {
	for _, rt := range r.rts {
		rt.Drain(2 * time.Second)
		rt.Close()
	}
}

// buildChain returns a set-up function for the full chain: build, then a
// fixed-work warm-up that creates every flow's state at every hop.
func buildChain(flows int, ping bool) func(*env) (rig, error) {
	return func(e *env) (rig, error) {
		r := newFullChain(e, flows)
		r.ping = ping
		r.arm(chainBurst, 0)
		if !r.saturate(e, 0, max(e.sz.chainWarmPkts, flows)) {
			r.close()
			return nil, fmt.Errorf("chain warm-up stalled")
		}
		return r, nil
	}
}

func runChainSat(e *env) {
	runWorkload(e, buildChain(e.sz.chainFlows, false), func(e *env) { chainProbes(e, e.sz.chainFlows) })
}

func runChainFlows16k(e *env) {
	runWorkload(e, buildChain(e.sz.chainFlowsBig, false), func(e *env) { chainProbes(e, e.sz.chainFlowsBig) })
}

func runChainPing(e *env) {
	runWorkload(e, buildChain(e.sz.chainFlows, true), func(e *env) { chainProbes(e, e.sz.chainFlows); wakeupProbe(e) })
}

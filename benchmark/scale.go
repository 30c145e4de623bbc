package main

import (
	"fmt"
	"net/netip"
	"runtime"
	"sync/atomic"
	"time"

	"openmb/internal/apps"
	"openmb/internal/bed"
	"openmb/internal/core"
	"openmb/internal/mbox"
	"openmb/internal/mbox/monitor"
	"openmb/internal/netsim"
	"openmb/internal/packet"
	"openmb/internal/sdn"
)

// scaleRig is the paper's elastic-scaling scenario (Figure 6(b)): a switch
// in front of two PRADS-like monitors, all traffic on the first until a
// ScaleUp moves the lower /17 to the second, and a ScaleDown brings it back.
type scaleRig struct {
	b     *bed.Bed
	apps  *apps.Env
	mons  [2]*monitor.Monitor
	rts   [2]*mbox.Runtime
	tmpl  []*packet.Packet
	order []int32
	split packet.FieldMatch
	lower int // flows inside the split match

	injected atomic.Uint64
	cycles   int

	// generator readings of the latest phase
	kpps   float64
	lateMS []float64

	m0      core.Metrics
	raised0 uint64
	inj0    uint64
}

// scaleTemplates builds n flows in 10.1.0.0/16, exactly half of them inside
// the lower /17, with an HTTP request payload as in the paper's trace.
func scaleTemplates(e *env, n int) ([]*packet.Packet, []int32) {
	rng := e.rng(3)
	tmpl := make([]*packet.Packet, 0, n)
	for half := 0; half < 2; half++ {
		for _, host := range rng.Perm(1 << 15)[:n/2] {
			payload := []byte("GET /index.html HTTP/1.1\r\nHost: example.com\r\nX-Pad: ")
			for len(payload) < 64 {
				payload = append(payload, byte('a'+rng.Intn(26)))
			}
			tmpl = append(tmpl, &packet.Packet{
				SrcIP:   netip.AddrFrom4([4]byte{10, 1, byte(half<<7 | host>>8), byte(host)}),
				DstIP:   netip.AddrFrom4([4]byte{52, 20, 0, 1}),
				Proto:   packet.ProtoTCP,
				SrcPort: uint16(1024 + rng.Intn(64000)), DstPort: 80,
				Flags: packet.FlagACK, TTL: 64,
				Payload: payload,
			})
		}
	}
	order := make([]int32, n)
	for i, v := range rng.Perm(n) {
		order[i] = int32(v)
	}
	return tmpl, order
}

func buildScaleup(e *env) (rig, error) {
	b, err := bed.New(pinnedOptions())
	if err != nil {
		return nil, err
	}
	r := &scaleRig{b: b, apps: &apps.Env{MB: b.Ctrl}, lower: e.sz.scaleFlows / 2}
	r.tmpl, r.order = scaleTemplates(e, e.sz.scaleFlows)
	r.split, err = packet.ParseFieldMatch("[nw_src=10.1.0.0/17]")
	if err != nil {
		b.Close()
		return nil, err
	}
	b.AddSwitch("s1")
	for i, name := range []string{"prads1", "prads2"} {
		r.mons[i] = monitor.New()
		if r.rts[i], err = b.AddMB(name, r.mons[i], ""); err == nil {
			err = b.Connect("s1", name, 0)
		}
		if err != nil {
			b.Close()
			return nil, err
		}
	}
	if _, err := b.SDN.Route(packet.MatchAll, 10, []sdn.Hop{{Switch: "s1", OutPort: "prads1"}}); err != nil {
		b.Close()
		return nil, err
	}
	// Preload: one packet per flow, so every flow has a record at prads1.
	// Closed loop, at most chainCap in flight: the runtime's ingress ring
	// sheds what does not fit, and 16384 packets at once do not.
	var buf [chainBurst]*packet.Packet
	for lo := 0; lo < len(r.tmpl); lo += chainBurst {
		n := copy(buf[:], r.tmpl[lo:])
		for i := 0; i < n; i++ {
			buf[i] = b.Pool.Clone(buf[i])
		}
		if err := b.Net.SendBurst(netsim.Ingress, "s1", buf[:n]); err != nil {
			b.Close()
			return nil, err
		}
		sent := r.injected.Add(uint64(n))
		e.attempted.Add(int64(n))
		for stall := time.Now(); sent-r.rts[0].Metrics().Processed > chainCap; runtime.Gosched() {
			if time.Since(stall) > stallAfter {
				b.Close()
				return nil, fmt.Errorf("preload stalled at %d packets", sent)
			}
		}
	}
	if !b.Quiesce(waitFor) || r.mons[0].FlowCount() != len(r.tmpl) {
		b.Close()
		return nil, fmt.Errorf("preload: %d of %d flows at prads1", r.mons[0].FlowCount(), len(r.tmpl))
	}
	for i := 0; i < e.sz.warmCycles; i++ {
		if _, _, _, ok := r.cycle(e); !ok {
			b.Close()
			return nil, fmt.Errorf("warm-up cycle failed: %v", e.incorrect)
		}
	}
	return r, nil
}

// generate injects at s1 on a fixed schedule (open loop) until stop closes:
// packet i is due at start + i/rate whatever the system is doing. It sleeps
// to the next due time and then sends everything that has fallen due, so a
// late wake-up shows as lateness, not as lost load.
func (r *scaleRig) generate(e *env, rate int, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	interval := time.Second / time.Duration(rate)
	start := time.Now()
	var buf [chainBurst]*packet.Packet
	late := make([]float64, 0, 1<<19)
	sent, next := 0, 0
	for {
		select {
		case <-stop:
			r.kpps = float64(sent) / time.Since(start).Seconds() / 1e3
			r.lateMS = late
			return
		default:
		}
		now := time.Now()
		due := start.Add(time.Duration(sent) * interval)
		if now.Before(due) {
			time.Sleep(due.Sub(now))
			continue
		}
		n := 0
		for n < len(buf) && !now.Before(due) {
			buf[n] = r.b.Pool.Clone(r.tmpl[r.order[next]])
			if next++; next == len(r.order) {
				next = 0
			}
			if len(late) < cap(late) {
				late = append(late, float64(now.Sub(due).Nanoseconds())/1e6)
			}
			n++
			due = due.Add(interval)
		}
		sp := e.rec.begin("inject", nil, int64(sent))
		err := r.b.Net.SendBurst(netsim.Ingress, "s1", buf[:n])
		sp.end()
		if err != nil {
			// SendBurst released the packets; they were attempted and lost.
			e.attempted.Add(int64(n))
			e.failed.Add(int64(n))
			continue
		}
		sent += n
		r.injected.Add(uint64(n))
		e.attempted.Add(int64(n))
	}
}

// cycle is one ScaleUp -> settle -> ScaleDown -> settle. With tracing on the
// two applications' steps are called one by one, each under its own span.
func (r *scaleRig) cycle(e *env) (up, down, settle time.Duration, ok bool) {
	op := int64(r.cycles)
	r.cycles++
	e.attempted.Add(2)
	hops := []sdn.Hop{{Switch: "s1", OutPort: "prads2"}}
	var route sdn.RouteID
	step := func(parent *span, name string, fn func() error) error {
		sp := e.rec.begin(name, parent, op)
		defer sp.end()
		return fn()
	}
	settleOnce := func() bool {
		sp := e.rec.begin("wait_txns", nil, op)
		defer sp.end()
		t0 := time.Now()
		done := r.b.Ctrl.WaitTxns(waitFor)
		settle += time.Since(t0)
		return done
	}
	doRoute := func() (err error) {
		route, err = r.b.SDN.Route(r.split, 20, hops)
		return err
	}

	t0 := time.Now()
	var err error
	matched := r.lower
	if e.tracing() {
		sp := e.rec.begin("scale_up", nil, op)
		err = step(sp, "scale_up.clone_config", func() error { return r.b.Ctrl.CloneConfig("prads1", "prads2") })
		if err == nil {
			err = step(sp, "scale_up.stats", func() error {
				s, err := r.b.Ctrl.Stats("prads1", r.split)
				matched = s.ReportPerflowChunks
				return err
			})
		}
		if err == nil {
			err = step(sp, "scale_up.move", func() error { return r.b.Ctrl.MoveInternal("prads1", "prads2", r.split) })
		}
		if err == nil {
			err = step(sp, "scale_up.route", doRoute)
		}
		sp.end()
	} else {
		s, uerr := r.apps.ScaleUp("prads1", "prads2", r.split, doRoute)
		matched, err = s.ReportPerflowChunks, uerr
	}
	up = time.Since(t0)
	if err != nil {
		e.fail(1, "scale-up %d: %v", op, err)
		return up, 0, settle, false
	}
	if matched != r.lower {
		e.check(false, "scale-up %d: stats matched %d flows, want %d", op, matched, r.lower)
	}
	if !settleOnce() {
		e.fail(1, "scale-up %d did not settle", op)
		return up, 0, settle, false
	}

	t0 = time.Now()
	unroute := func() error { return r.b.SDN.Unroute(route) }
	if e.tracing() {
		sp := e.rec.begin("scale_down", nil, op)
		err = step(sp, "scale_down.move", func() error { return r.b.Ctrl.MoveInternal("prads2", "prads1", packet.MatchAll) })
		if err == nil {
			err = step(sp, "scale_down.merge", func() error { return r.b.Ctrl.MergeInternal("prads2", "prads1") })
		}
		if err == nil {
			err = step(sp, "scale_down.unroute", unroute)
		}
		sp.end()
	} else {
		err = r.apps.ScaleDown("prads2", "prads1", unroute)
	}
	down = time.Since(t0)
	if err != nil {
		e.fail(1, "scale-down %d: %v", op, err)
		return up, down, settle, false
	}
	if !settleOnce() {
		e.fail(1, "scale-down %d did not settle", op)
		return up, down, settle, false
	}
	return up, down, settle, true
}

// conserved waits for the data plane and the controller to go quiet and
// checks that every injected packet is counted in exactly one per-flow
// record across the two monitors.
func (r *scaleRig) conserved(e *env) {
	if !r.b.Quiesce(waitFor) || !r.b.Ctrl.WaitTxns(waitFor) {
		e.check(false, "scaleup-live did not quiesce")
		return
	}
	// Replayed packets run after Quiesce's drain observes an empty ring
	// only if events are still in flight; WaitTxns above covers them, and a
	// second drain covers the replays they enqueue.
	for _, rt := range r.rts {
		rt.Drain(waitFor)
	}
	injected := r.injected.Load()
	counted := r.mons[0].TotalPerflowPackets() + r.mons[1].TotalPerflowPackets()
	if counted != injected {
		diff := int64(counted) - int64(injected)
		if diff < 0 {
			diff = -diff
		}
		e.fail(diff, "per-flow conservation: monitors count %d packets, %d injected", counted, injected)
	}
	flows := r.mons[0].FlowCount() + r.mons[1].FlowCount()
	e.check(flows == len(r.tmpl), "monitors hold %d flow records, want %d", flows, len(r.tmpl))
}

func (r *scaleRig) run(e *env, d time.Duration) phase {
	var p phase
	r.m0, r.inj0 = r.b.Ctrl.Metrics(), r.injected.Load()
	r.raised0 = r.rts[0].Metrics().EventsRaised + r.rts[1].Metrics().EventsRaised
	stop, done := make(chan struct{}), make(chan struct{})
	go r.generate(e, e.sz.scaleRate, stop, done)
	before, start := readUsage(), time.Now()
	var upMS, downMS []float64
	var ops []op
	for time.Since(start) < d {
		c0 := r.b.Ctrl.Metrics().ChunksMoved
		up, down, settle, ok := r.cycle(e)
		if !ok {
			break
		}
		ops = append(ops, op{
			ms: float64((up + down).Nanoseconds()) / 1e6, busy: (up + down + settle).Seconds(),
			work: float64(r.b.Ctrl.Metrics().ChunksMoved - c0),
		})
		upMS = append(upMS, float64(up.Nanoseconds())/1e6)
		downMS = append(downMS, float64(down.Nanoseconds())/1e6)
	}
	p.addOps(ops)
	p.use = readUsage().since(before)
	close(stop)
	<-done
	p.extra = map[string][]float64{"up_ms": upMS, "down_ms": downMS}
	r.conserved(e)
	return p
}

func (r *scaleRig) layer(e *env, p phase) {
	c := r.b.Ctrl.Metrics()
	e.set("core.events_forwarded", float64(c.EventsForwarded-r.m0.EventsForwarded))
	e.set("core.events_buffered", float64(c.EventsBuffered-r.m0.EventsBuffered))
	e.set("core.chunks_moved", float64(c.ChunksMoved-r.m0.ChunksMoved))
	e.set("core.bytes_moved", float64(c.BytesMoved-r.m0.BytesMoved))
	var raised, replayed, drops uint64
	for _, rt := range r.rts {
		m := rt.Metrics()
		raised += m.EventsRaised
		replayed += m.Replayed
		drops += m.DroppedPackets
	}
	e.set("mbox.events_raised", float64(raised-r.raised0))
	e.set("mbox.replayed", float64(replayed))
	e.set("mbox.ring_drops", float64(drops))
	if live := r.injected.Load() - r.inj0; live > 0 {
		e.set("core.events_per_live_pkt", float64(raised-r.raised0)/float64(live))
	}
	e.set("netsim.dropped", float64(r.b.Net.Dropped()))
	e.set("netsim.delivered", float64(r.b.Net.Delivered()))
	e.set("apps.scaleup_ms_p50", median(p.extra["up_ms"]))
	e.set("apps.scaledown_ms_p50", median(p.extra["down_ms"]))
	e.set("core.clone_config_us", e.rec.p50("scale_up.clone_config", time.Microsecond))
	e.set("core.stats_us", e.rec.p50("scale_up.stats", time.Microsecond))
	e.set("core.merge_ms_p50", e.rec.p50("scale_down.merge", time.Millisecond))
	e.set("sdn.route_update_us", e.rec.p50("scale_up.route", time.Microsecond))
	e.set("gen.achieved_kpps", r.kpps)
	e.set("gen.late_ms_p99", quantile(r.lateMS, 0.99))
	var sent, flushes uint64
	for _, cc := range r.b.Ctrl.ConnCounters() {
		sent, flushes = sent+cc.Sent, flushes+cc.Flushes
	}
	for _, rt := range r.rts {
		wc := rt.WireCounters()
		sent, flushes = sent+wc.Sent, flushes+wc.Flushes
	}
	if flushes > 0 {
		e.set("sbi.frames_per_flush", float64(sent)/float64(flushes))
	}
}

func (r *scaleRig) verify(e *env) {
	for _, rt := range r.rts {
		if d := rt.Metrics().DroppedPackets; d != 0 {
			e.fail(int64(d), "%s dropped %d packets at its ring", rt.Name(), d)
		}
	}
	if d := r.b.Net.Dropped(); d != 0 {
		e.fail(int64(d), "netsim dropped %d packets", d)
	}
}

func (r *scaleRig) close() { r.b.Close() }

func runScaleupLive(e *env) {
	runWorkload(e, buildScaleup, func(e *env) {
		tmpl, _ := scaleTemplates(e, e.sz.scaleFlows)
		split, _ := packet.ParseFieldMatch("[nw_src=10.1.0.0/17]")
		keys := make([]packet.FlowKey, len(tmpl))
		for i, p := range tmpl {
			keys[i] = p.Flow()
		}
		netsimProbes(e, tmpl, split)
		indexProbe(e, keys, split, len(tmpl)/2)
		transferProbes(e, e.sz.scaleFlows/2)
	})
}

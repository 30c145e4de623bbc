package main

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync/atomic"
	"time"

	"openmb/internal/mbox"
	"openmb/internal/mbox/ips"
	"openmb/internal/mbox/mbtest"
	"openmb/internal/mbox/monitor"
	"openmb/internal/mbox/nat"
	"openmb/internal/netsim"
	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/state"
)

// The isolation probes drive one layer alone, through its exported
// functions, at the sizes of the workload that called them. "Self" cost is a
// probe minus the probe of the layer beneath it.

// fwdLogic forwards every packet untouched: a runtime hosting it costs
// exactly ring + burst dispatch + hand-off.
type fwdLogic struct{ cfg *state.ConfigTree }

func (fwdLogic) Kind() string                                { return "fwd" }
func (fwdLogic) Process(ctx *mbox.Context, p *packet.Packet) { ctx.Emit(p) }
func (fwdLogic) ProcessBurst(ctxs []mbox.Context, pkts []*packet.Packet) {
	for i := range pkts {
		ctxs[i].Emit(pkts[i])
	}
}
func (fwdLogic) GetPerflow(state.Class, packet.FieldMatch, func(packet.FlowKey, func(func()) ([]byte, error)) error) error {
	return nil
}
func (fwdLogic) PutPerflow(state.Class, state.Chunk) error { return fmt.Errorf("fwd: stateless") }
func (fwdLogic) DelPerflow(state.Class, packet.FieldMatch) (int, error) {
	return 0, nil
}
func (fwdLogic) GetShared(state.Class, func()) ([]byte, error) { return nil, mbox.ErrNoSharedState }
func (fwdLogic) PutShared(state.Class, []byte) error           { return mbox.ErrNoSharedState }
func (fwdLogic) Stats(packet.FieldMatch) sbi.StatsReply        { return sbi.StatsReply{} }
func (l fwdLogic) Config() *state.ConfigTree                   { return l.cfg }

// oneHopNS saturates a single runtime hosting logic with a fixed number of
// packets and returns ns/packet, after one warm pass that creates every
// flow's state. The count is fixed, not the time: a slow hop (the NAT at
// 16k flows) needs seconds to show its steady rate, a fast one milliseconds.
func oneHopNS(e *env, name string, tmpl []*packet.Packet, order []int32, logic mbox.Logic) float64 {
	sp := e.rec.begin("probe."+name, nil, 0)
	defer sp.end()
	r := newChainRig(tmpl, order, logic)
	defer r.close()
	r.arm(chainBurst, 0)
	if !r.saturate(e, 0, len(tmpl)) {
		return 0
	}
	t0 := time.Now()
	if !r.saturate(e, 0, e.sz.probePkts) {
		return 0
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(e.sz.probePkts)
}

// chainProbes measures the data-plane layers one at a time at the given
// flow count.
func chainProbes(e *env, flows int) {
	tmpl, order := chainTemplates(e, flows)

	sp := e.rec.begin("probe.packet_pool", nil, 0)
	pool := packet.NewPool(packet.PoolOptions{})
	const n = 1 << 20
	t0 := time.Now()
	for i := 0; i < n; i++ {
		pool.Clone(tmpl[i%len(tmpl)]).Release()
	}
	e.set("packet.clone_release_ns", float64(time.Since(t0).Nanoseconds())/n)
	sp.end()

	base := oneHopNS(e, "runtime", tmpl, order, fwdLogic{cfg: state.NewConfigTree()})
	e.set("mbox.runtime_ns_per_pkt", base)
	self := func(name string, logic mbox.Logic) {
		if ns := oneHopNS(e, name, tmpl, order, logic); ns > 0 {
			e.set(name+".ns_per_pkt", ns-base)
		}
	}
	self("monitor", tapMonitor{monitor.New()})
	self("nat", nat.New(netip.MustParseAddr("192.0.2.1")))
	self("ips", ips.New())
}

// wakeupProbe times one packet into an idle one-hop runtime until the
// forward callback: the generator lets the worker park between packets.
func wakeupProbe(e *env) {
	sp := e.rec.begin("probe.wakeup", nil, 0)
	defer sp.end()
	tmpl, order := chainTemplates(e, e.sz.chainFlows)
	r := newChainRig(tmpl, order, fwdLogic{cfg: state.NewConfigTree()})
	defer r.close()
	samples := int(e.sz.probeFor / (40 * time.Microsecond))
	r.arm(1, samples)
	buf := make([]*packet.Packet, 1)
	for i := 0; i < samples; i++ {
		// Busy-wait, holding this processor and leaving the other to the
		// worker, long enough for it to find its ring empty and park.
		for idle := time.Now(); time.Since(idle) < 20*time.Microsecond; {
		}
		r.fill(buf)
		r.sink.injectAt[uint64(i)%injectRing] = time.Since(r.sink.t0).Nanoseconds()
		r.rts[0].HandleBurst(buf)
		r.sent++
		e.attempted.Add(1)
		if !r.awaitDelivered(r.sent) {
			e.fail(1, "wake-up probe stalled")
			return
		}
	}
	var p phase
	p.addLatency(r.ops())
	e.set("mbox.wakeup_us_p50", quantile(p.ms, 0.5)*1e3)
	e.set("mbox.wakeup_us_p90", quantile(p.ms, 0.9)*1e3)
}

// countEndpoint is a netsim endpoint that counts and releases.
type countEndpoint struct{ n atomic.Uint64 }

func (c *countEndpoint) HandlePacket(p *packet.Packet) {
	p.Release()
	c.n.Add(1)
}

func (c *countEndpoint) HandleBurst(ps []*packet.Packet) {
	for _, p := range ps {
		p.Release()
	}
	c.n.Add(uint64(len(ps)))
}

// netsimProbes measures one zero-copy link, and one switch carrying the
// scaleup-live rules, each to counting endpoints.
func netsimProbes(e *env, tmpl []*packet.Packet, split packet.FieldMatch) {
	sp := e.rec.begin("probe.netsim", nil, 0)
	defer sp.end()
	drive := func(n *netsim.Network, at string, got func() uint64) float64 {
		pool := packet.NewPool(packet.PoolOptions{})
		var buf [chainBurst]*packet.Packet
		var sent uint64
		start := time.Now()
		for time.Since(start) < e.sz.probeFor {
			for i := range buf {
				buf[i] = pool.Clone(tmpl[(int(sent)+i)%len(tmpl)])
			}
			if err := n.SendBurst(netsim.Ingress, at, buf[:]); err != nil {
				e.fail(chainBurst, "netsim probe: %v", err)
				return 0
			}
			sent += chainBurst
			e.attempted.Add(chainBurst)
			for stall := time.Now(); sent-got() > chainCap; runtime.Gosched() {
				if time.Since(stall) > stallAfter {
					e.fail(int64(sent-got()), "netsim probe stalled")
					return 0
				}
			}
		}
		for stall := time.Now(); got() < sent; runtime.Gosched() {
			if time.Since(stall) > stallAfter {
				e.fail(int64(sent-got()), "netsim probe stalled")
				return 0
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(sent)
	}

	ln := netsim.New()
	end := &countEndpoint{}
	ln.Attach("end", end)
	link := drive(ln, "end", end.n.Load)
	ln.Stop()
	e.set("netsim.link_ns_per_pkt", link)

	sn := netsim.New()
	sw := netsim.NewSwitch(sn, "s1")
	p1, p2 := &countEndpoint{}, &countEndpoint{}
	sn.Attach("p1", p1)
	sn.Attach("p2", p2)
	if err := sn.Connect("s1", "p1", 0); err != nil {
		e.check(false, "netsim probe: %v", err)
		return
	}
	if err := sn.Connect("s1", "p2", 0); err != nil {
		e.check(false, "netsim probe: %v", err)
		return
	}
	sw.Install(netsim.Rule{ID: "all", Priority: 10, Match: packet.MatchAll, OutPorts: []string{"p1"}})
	sw.Install(netsim.Rule{ID: "split", Priority: 20, Match: split, OutPorts: []string{"p2"}})
	through := drive(sn, "s1", func() uint64 {
		return p1.n.Load() + p2.n.Load()
	})
	sn.Stop()
	// The switch path is ingress link, switch, egress link, each on its own
	// goroutine: the stages overlap, so this is the path's cost per packet
	// and not a sum the link cost can be subtracted from.
	e.set("netsim.switch_ns_per_pkt", through)
}

// bufConn is a net.Conn over a byte buffer: writes append, reads drain. It
// lets the codec probe time encoding and decoding apart, which a
// synchronous net.Pipe cannot.
type bufConn struct{ bytes.Buffer }

func (*bufConn) Close() error                     { return nil }
func (*bufConn) LocalAddr() net.Addr              { return bufAddr{} }
func (*bufConn) RemoteAddr() net.Addr             { return bufAddr{} }
func (*bufConn) SetDeadline(time.Time) error      { return nil }
func (*bufConn) SetReadDeadline(time.Time) error  { return nil }
func (*bufConn) SetWriteDeadline(time.Time) error { return nil }

type bufAddr struct{}

func (bufAddr) Network() string { return "buf" }
func (bufAddr) String() string  { return "buf" }

// codecProbe sends and then receives 32-chunk put frames of the workload's
// chunk size over an in-memory connection in the binary codec.
func codecProbe(e *env, chunks []state.Chunk) {
	sp := e.rec.begin("probe.sbi_codec", nil, 0)
	defer sp.end()
	raw := &bufConn{}
	conn := sbi.NewConn(raw)
	if err := conn.Upgrade(sbi.CodecBinary); err != nil {
		e.check(false, "codec probe: %v", err)
		return
	}
	const perFrame = 32
	frames := len(chunks) / perFrame
	if frames == 0 {
		return
	}
	n := float64(frames * perFrame)
	before := readUsage()
	t0 := time.Now()
	for f := 0; f < frames; f++ {
		m := &sbi.Message{Type: sbi.MsgRequest, ID: uint64(f + 1), Op: sbi.OpPutSupportPerflow}
		m.SetChunks(chunks[f*perFrame : (f+1)*perFrame])
		if err := conn.Send(m); err != nil {
			e.check(false, "codec probe send: %v", err)
			return
		}
	}
	enc := time.Since(t0)
	wire := raw.Len()
	t0 = time.Now()
	got := 0
	for f := 0; f < frames; f++ {
		m, err := conn.Receive()
		if err != nil {
			e.check(false, "codec probe receive: %v", err)
			return
		}
		got += m.ChunkCount()
	}
	dec := time.Since(t0)
	use := readUsage().since(before)
	e.check(got == frames*perFrame, "codec probe decoded %d of %d chunks", got, frames*perFrame)
	e.set("sbi.encode_ns_per_chunk", float64(enc.Nanoseconds())/n)
	e.set("sbi.decode_ns_per_chunk", float64(dec.Nanoseconds())/n)
	e.set("sbi.wire_bytes_per_chunk", float64(wire)/n)
	e.set("sbi.allocs_per_chunk", float64(use.mallocs)/n)
}

// tcpRTTProbe ping-pongs a small frame between two sbi.Conns on loopback.
func tcpRTTProbe(e *env) {
	sp := e.rec.begin("probe.tcp_rtt", nil, 0)
	defer sp.end()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.check(false, "tcp rtt probe: %v", err)
		return
	}
	defer l.Close()
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		raw, err := l.Accept()
		if err != nil {
			return
		}
		c := sbi.NewConn(raw)
		defer c.Close()
		if c.Upgrade(sbi.CodecBinary) != nil {
			return
		}
		for {
			m, err := c.Receive()
			if err != nil {
				return
			}
			if c.Send(&sbi.Message{Type: sbi.MsgDone, ID: m.ID}) != nil {
				return
			}
		}
	}()
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		e.check(false, "tcp rtt probe: %v", err)
		return
	}
	c := sbi.NewConn(raw)
	if err := c.Upgrade(sbi.CodecBinary); err != nil {
		e.check(false, "tcp rtt probe: %v", err)
		return
	}
	rounds := int(e.sz.probeFor / (50 * time.Microsecond))
	us := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		_ = c.SetReadDeadline(time.Now().Add(stallAfter))
		t0 := time.Now()
		if err := c.Send(&sbi.Message{Type: sbi.MsgRequest, ID: uint64(i + 1), Op: sbi.OpPing}); err != nil {
			e.fail(1, "tcp rtt probe: %v", err)
			break
		}
		if _, err := c.Receive(); err != nil {
			e.fail(1, "tcp rtt probe: %v", err)
			break
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		e.attempted.Add(1)
	}
	c.Close()
	<-echoDone
	e.set("sbi.tcp_rtt_us_p50", median(us))
}

// directMB is a runtime with the benchmark playing controller on the other
// end of its southbound connection.
type directMB struct {
	rt     *mbox.Runtime
	conn   *sbi.Conn
	nextID uint64
}

func newDirectMB(name string, logic mbox.Logic) (*directMB, error) {
	tr := sbi.NewMemTransport()
	l, err := tr.Listen("probe")
	if err != nil {
		return nil, err
	}
	defer l.Close()
	rt := mbox.New(name, logic, mbox.Options{})
	type accepted struct {
		c   *sbi.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		raw, err := l.Accept()
		if err != nil {
			ch <- accepted{err: err}
			return
		}
		c := sbi.NewConn(raw)
		hello, err := c.Receive()
		if err == nil {
			err = c.Upgrade(hello.Codec)
		}
		ch <- accepted{c: c, err: err}
	}()
	if err := rt.Connect(tr, "probe"); err != nil {
		rt.Close()
		return nil, err
	}
	a := <-ch
	if a.err != nil {
		rt.Close()
		return nil, a.err
	}
	return &directMB{rt: rt, conn: a.c}, nil
}

func (d *directMB) close() {
	d.conn.Close()
	d.rt.Close()
}

// export runs one raw get of all supporting per-flow state and returns the
// chunks and the request-to-done time.
func (d *directMB) export() ([]state.Chunk, time.Duration, error) {
	d.nextID++
	id := d.nextID
	var out []state.Chunk
	_ = d.conn.SetReadDeadline(time.Now().Add(stallAfter))
	t0 := time.Now()
	if err := d.conn.Send(&sbi.Message{Type: sbi.MsgRequest, ID: id, Op: sbi.OpGetSupportPerflow, Match: packet.MatchAll, Batch: 32}); err != nil {
		return nil, 0, err
	}
	for {
		m, err := d.conn.Receive()
		if err != nil {
			return nil, 0, err
		}
		switch {
		case m.ID != id:
		case m.Type == sbi.MsgChunk:
			m.EachChunk(func(c *state.Chunk) { out = append(out, *c) })
		case m.Type == sbi.MsgDone:
			return out, time.Since(t0), nil
		case m.Type == sbi.MsgError:
			return nil, 0, fmt.Errorf("get: %s", m.Error)
		}
	}
}

// install pipelines puts of 32-chunk frames and returns the time to the
// last ACK. The sender runs beside the reader: the in-memory pipe is
// synchronous, so a sender that did not read ACKs would deadlock.
func (d *directMB) install(chunks []state.Chunk) (time.Duration, error) {
	frames := 0
	_ = d.conn.SetReadDeadline(time.Now().Add(stallAfter))
	t0 := time.Now()
	sendErr := make(chan error, 1)
	base := d.nextID
	d.nextID += uint64((len(chunks) + 31) / 32)
	go func() {
		id := base
		sendErr <- sbi.FrameChunks(chunks, 32, func(frame []state.Chunk) error {
			id++
			put := &sbi.Message{Type: sbi.MsgRequest, ID: id, Op: sbi.OpPutSupportPerflow}
			put.SetChunks(frame)
			return d.conn.Send(put)
		})
	}()
	want := (len(chunks) + 31) / 32
	for frames < want {
		m, err := d.conn.Receive()
		if err != nil {
			return 0, err
		}
		switch m.Type {
		case sbi.MsgDone:
			frames++
		case sbi.MsgError:
			return 0, fmt.Errorf("put: %s", m.Error)
		}
	}
	took := time.Since(t0)
	return took, <-sendErr
}

// transferProbes measures MB export and import alone, and the codec, at the
// workload's chunk count and size.
func transferProbes(e *env, chunks int) {
	sp := e.rec.begin("probe.mb_transfer", nil, 0)
	srcLogic := mbtest.NewCounterLogic(202)
	preloadCounter(e, srcLogic, chunks)
	src, err := newDirectMB("probe-src", srcLogic)
	if err != nil {
		e.check(false, "transfer probe: %v", err)
		sp.end()
		return
	}
	defer src.close()
	dst, err := newDirectMB("probe-dst", mbtest.NewCounterLogic(202))
	if err != nil {
		e.check(false, "transfer probe: %v", err)
		sp.end()
		return
	}
	defer dst.close()
	var got []state.Chunk
	var exp, imp []float64
	for rep := 0; rep < 3; rep++ {
		cs, took, err := src.export()
		if err != nil || len(cs) != chunks {
			e.fail(1, "export probe: %d of %d chunks, err=%v", len(cs), chunks, err)
			sp.end()
			return
		}
		got = cs
		exp = append(exp, float64(took.Nanoseconds())/float64(chunks))
		took, err = dst.install(cs)
		if err != nil {
			e.fail(1, "import probe: %v", err)
			sp.end()
			return
		}
		imp = append(imp, float64(took.Nanoseconds())/float64(chunks))
		e.attempted.Add(2)
	}
	e.set("mbox.export_ns_per_chunk", median(exp))
	e.set("mbox.import_ns_per_chunk", median(imp))
	sp.end()
	codecProbe(e, got)
}

// indexProbe times FlowIndex.Lookup of the split match over the workload's
// keys.
func indexProbe(e *env, keys []packet.FlowKey, split packet.FieldMatch, want int) {
	sp := e.rec.begin("probe.flow_index", nil, 0)
	defer sp.end()
	ix := state.NewFlowIndex()
	for _, k := range keys {
		ix.Insert(k.Canonical())
	}
	ix.Lookup(split) // builds the sorted views
	var us []float64
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		got, ok := ix.Lookup(split)
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		if !ok || len(got) != want {
			e.check(false, "index lookup returned %d keys, want %d", len(got), want)
			return
		}
	}
	e.set("state.index_lookup_us", median(us))
}

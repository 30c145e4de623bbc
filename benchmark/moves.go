package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"

	"openmb/internal/core"
	"openmb/internal/mbox"
	"openmb/internal/mbox/mbtest"
	"openmb/internal/obs"
	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/state"
)

// waitFor bounds WaitTxns and the mesh/registration waits.
const waitFor = 15 * time.Second

// preloadCounter installs n seeded per-flow records (distinct 10/8 sources,
// counts 1..1000) into a dummy MB and returns their sum, the quantity every
// move must conserve.
func preloadCounter(e *env, l *mbtest.CounterLogic, n int) uint64 {
	rng := e.rng(2)
	seen := map[[5]byte]bool{}
	var sum uint64
	var blob [8]byte
	for len(seen) < n {
		a := [5]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
		port := uint16(1024 + rng.Intn(64000))
		a[3], a[4] = byte(port>>8), byte(port)
		if seen[a] {
			continue
		}
		seen[a] = true
		key := packet.FlowKey{
			SrcIP: netip.AddrFrom4([4]byte{10, a[0], a[1], a[2]}), SrcPort: port,
			DstIP: netip.AddrFrom4([4]byte{1, 1, 1, 1}), DstPort: 80,
			Proto: packet.ProtoTCP,
		}.Canonical()
		v := uint64(1 + rng.Intn(1000))
		binary.BigEndian.PutUint64(blob[:], v)
		// PutPerflow on a fresh CounterLogic cannot fail for an 8-byte
		// supporting blob.
		_ = l.PutPerflow(state.Supporting, state.Chunk{Key: key, Blob: blob[:]})
		sum += v
	}
	return sum
}

// moveRig is two dummy MBs and something that moves all state between
// them: one controller over MemTransport (move-idle) or two nodes over
// loopback TCP (move-xnode).
type moveRig struct {
	chunks int
	total  uint64
	logics [2]*mbtest.CounterLogic
	rts    [2]*mbox.Runtime
	names  [2]string
	at     int // which MB holds the state
	moves  int

	ctrl  *core.Controller // move-idle
	nodes []*core.Node     // move-xnode; coordinators alternate

	m0   core.Metrics
	lat0 [3]obs.HistogramSnapshot
}

func (r *moveRig) metrics() core.Metrics {
	if r.ctrl != nil {
		return r.ctrl.Metrics()
	}
	var m core.Metrics
	for _, n := range r.nodes {
		nm := n.Cluster.Metrics()
		m.ChunksMoved += nm.ChunksMoved
		m.BytesMoved += nm.BytesMoved
		m.EventsForwarded += nm.EventsForwarded
		m.EventsBuffered += nm.EventsBuffered
	}
	return m
}

// latencies sums the controllers' move, get and put histograms.
func (r *moveRig) latencies() [3]obs.HistogramSnapshot {
	ctrls := []*core.Controller{r.ctrl}
	if r.ctrl == nil {
		ctrls = ctrls[:0]
		for _, n := range r.nodes {
			ctrls = append(ctrls, n.Cluster.Replica(0))
		}
	}
	var out [3]obs.HistogramSnapshot
	for _, c := range ctrls {
		mv, get, put := c.OpLatencies()
		for i, s := range []obs.HistogramSnapshot{mv, get, put} {
			out[i].Count += s.Count
			out[i].Sum += s.Sum
		}
	}
	return out
}

// moveOnce moves everything to the other MB and waits for the transaction
// to settle. It returns the call and settle durations.
func (r *moveRig) moveOnce(e *env) (call, settle time.Duration, ok bool) {
	src, dst := r.at, 1-r.at
	op := int64(r.moves)
	e.attempted.Add(1)
	sp := e.rec.begin("move", nil, op)
	t0 := time.Now()
	var err error
	var wait func(time.Duration) bool
	if r.ctrl != nil {
		err = r.ctrl.MoveInternal(r.names[src], r.names[dst], packet.MatchAll)
		wait = r.ctrl.WaitTxns
	} else {
		n := r.nodes[r.moves%len(r.nodes)]
		if e.tracing() {
			// Pull alone, so the relay hop has its own number; the
			// MoveInternal below then finds both endpoints local.
			for _, name := range []string{r.names[src], r.names[dst]} {
				ps := e.rec.begin("pull", sp, op)
				perr := n.Pull(name)
				ps.end()
				if perr != nil && err == nil {
					err = perr
				}
			}
		}
		if err == nil {
			ms := e.rec.begin("move_internal", sp, op)
			err = n.MoveInternal(r.names[src], r.names[dst], packet.MatchAll)
			ms.end()
		}
		wait = n.Cluster.WaitTxns
	}
	call = time.Since(t0)
	sp.end()
	r.moves++
	if err != nil {
		e.fail(1, "move %d: %v", op, err)
		return call, 0, false
	}
	sp = e.rec.begin("wait_txns", nil, op)
	settled := wait(waitFor)
	settle = time.Since(t0) - call
	sp.end()
	if !settled {
		e.fail(1, "move %d: transactions did not settle in %v", op, waitFor)
		return call, settle, false
	}
	r.at = dst
	// Exactly-once state: every record and every count is at the
	// destination, nothing is left at the source.
	got, left, sum := r.logics[dst].Flows(), r.logics[src].Flows(), r.logics[dst].SumCounts()
	if got != r.chunks || left != 0 || sum != r.total {
		e.fail(1, "move %d broke conservation: dst %d flows (want %d) sum %d (want %d), src %d flows left", op, got, r.chunks, sum, r.total, left)
		return call, settle, false
	}
	return call, settle, true
}

func (r *moveRig) run(e *env, d time.Duration) phase {
	var p phase
	r.m0, r.lat0 = r.metrics(), r.latencies()
	before, start := readUsage(), time.Now()
	var settleMS []float64
	var ops []op
	for time.Since(start) < d {
		call, settle, ok := r.moveOnce(e)
		if !ok {
			break
		}
		ops = append(ops, op{ms: float64(call.Nanoseconds()) / 1e6, busy: (call + settle).Seconds(), work: float64(r.chunks)})
		settleMS = append(settleMS, float64(settle.Nanoseconds())/1e6)
	}
	p.addOps(ops)
	p.use = readUsage().since(before)
	p.extra = map[string][]float64{"settle_ms": settleMS}
	m := r.metrics()
	want := uint64(len(ops)) * uint64(r.chunks)
	e.check(m.ChunksMoved-r.m0.ChunksMoved == want, "controller counted %d chunks moved, want exactly %d", m.ChunksMoved-r.m0.ChunksMoved, want)
	return p
}

func (r *moveRig) layer(e *env, p phase) {
	m, lat := r.metrics(), r.latencies()
	e.set("core.chunks_moved", float64(m.ChunksMoved-r.m0.ChunksMoved))
	e.set("core.bytes_moved", float64(m.BytesMoved-r.m0.BytesMoved))
	e.set("core.events_forwarded", float64(m.EventsForwarded-r.m0.EventsForwarded))
	e.set("core.events_buffered", float64(m.EventsBuffered-r.m0.EventsBuffered))
	mean := func(i int, unit time.Duration) float64 {
		n := lat[i].Count - r.lat0[i].Count
		if n == 0 {
			return 0
		}
		return float64(lat[i].Sum-r.lat0[i].Sum) / float64(n) / float64(unit)
	}
	e.set("core.move_window_ms_mean", mean(0, time.Millisecond))
	e.set("core.get_stream_ms_mean", mean(1, time.Millisecond))
	e.set("core.put_ack_us_mean", mean(2, time.Microsecond))
	e.set("core.move_ms_p90", quantile(p.ms, 0.9))
	e.set("core.settle_ms_p50", median(p.extra["settle_ms"]))
	if p.work > 0 {
		e.set("core.allocs_per_chunk", float64(p.use.mallocs)/p.work)
		e.set("core.bytes_per_chunk", float64(p.use.bytes)/p.work)
		e.set("core.cpu_ns_per_chunk", float64(p.use.cpu.Nanoseconds())/p.work)
	}
	var raised, replayed uint64
	var wire sbi.Counters
	for _, rt := range r.rts {
		rm := rt.Metrics()
		raised += rm.EventsRaised
		replayed += rm.Replayed
		wc := rt.WireCounters()
		wire.Sent += wc.Sent
		wire.Flushes += wc.Flushes
	}
	e.set("mbox.events_raised", float64(raised))
	e.set("mbox.replayed", float64(replayed))
	conns := []map[string]sbi.Counters{}
	if r.ctrl != nil {
		conns = append(conns, r.ctrl.ConnCounters())
	}
	for _, n := range r.nodes {
		conns = append(conns, n.Cluster.ConnCounters())
	}
	for _, cc := range conns {
		for _, c := range cc {
			wire.Sent += c.Sent
			wire.Flushes += c.Flushes
		}
	}
	if wire.Flushes > 0 {
		e.set("sbi.frames_per_flush", float64(wire.Sent)/float64(wire.Flushes))
	}
	if len(r.nodes) > 0 {
		e.set("core.pull_ms_p50", e.rec.p50("pull", time.Millisecond))
		var commits float64
		for _, n := range r.nodes {
			commits += nodeCounter(n, "openmb_node_dir_commits_total")
		}
		e.set("core.dir_commits", commits)
	}
}

// nodeCounter reads one of the node layer's counters, which are exported
// only through its obs collector.
func nodeCounter(n *core.Node, series string) float64 {
	reg := obs.NewRegistry()
	reg.Register(n)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return 0
	}
	vals, err := obs.ParseSeries(buf.String())
	if err != nil {
		return 0
	}
	return vals[series]
}

func (r *moveRig) verify(e *env) {
	holder, other := r.logics[r.at], r.logics[1-r.at]
	e.check(holder.Flows() == r.chunks && holder.SumCounts() == r.total && other.Flows() == 0,
		"final state: holder %d flows sum %d (want %d, %d), other %d flows", holder.Flows(), holder.SumCounts(), r.chunks, r.total, other.Flows())
}

func (r *moveRig) close() {
	for _, rt := range r.rts {
		if rt != nil {
			rt.Close()
		}
	}
	if r.ctrl != nil {
		r.ctrl.Close()
	}
	for _, n := range r.nodes {
		n.Close()
	}
}

// warm runs the fixed-work warm-up moves (an even count, so the state ends
// where it started).
func (r *moveRig) warm(e *env) error {
	for i := 0; i < e.sz.warmMoves; i++ {
		if _, _, ok := r.moveOnce(e); !ok {
			return fmt.Errorf("warm-up move failed: %v", e.incorrect)
		}
	}
	return nil
}

func newMoveRig(e *env) *moveRig {
	r := &moveRig{chunks: e.sz.moveChunks, names: [2]string{"mb-a", "mb-b"}}
	for i := range r.logics {
		r.logics[i] = mbtest.NewCounterLogic(202)
	}
	r.total = preloadCounter(e, r.logics[0], r.chunks)
	return r
}

func buildMoveIdle(e *env) (rig, error) {
	r := newMoveRig(e)
	tr := sbi.NewMemTransport()
	r.ctrl = core.NewController(pinnedOptions())
	if err := r.ctrl.Serve(tr, "ctrl"); err != nil {
		return nil, err
	}
	for i, name := range r.names {
		r.rts[i] = mbox.New(name, r.logics[i], mbox.Options{})
		if err := r.rts[i].Connect(tr, "ctrl"); err != nil {
			r.close()
			return nil, err
		}
		if err := r.ctrl.WaitForMB(name, waitFor); err != nil {
			r.close()
			return nil, err
		}
	}
	if err := r.warm(e); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func buildMoveXnode(e *env) (rig, error) {
	r := newMoveRig(e)
	for _, name := range []string{"node-a", "node-b"} {
		n := core.NewNode(core.NodeOptions{
			Name:    name,
			Cluster: core.ClusterOptions{Replicas: 1, Controller: pinnedOptions()},
		})
		r.nodes = append(r.nodes, n)
		if err := n.Serve(sbi.TCPTransport{}, "127.0.0.1:0"); err != nil {
			r.close()
			return nil, err
		}
	}
	a, b := r.nodes[0], r.nodes[1]
	if err := b.Join(a.Addr()); err != nil {
		r.close()
		return nil, err
	}
	for deadline := time.Now().Add(waitFor); len(a.Peers()) != 1 || len(b.Peers()) != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			r.close()
			return nil, fmt.Errorf("node mesh did not form")
		}
	}
	for i, name := range r.names {
		// Reconnect back-off pinned to 2-50 ms: a Pull is a release and a
		// redial, and the defaults (50 ms - 2 s) would time the back-off.
		r.rts[i] = mbox.New(name, r.logics[i], mbox.Options{
			Reconnect: true, ReconnectMin: 2 * time.Millisecond, ReconnectMax: 50 * time.Millisecond,
		})
		if err := r.rts[i].Connect(sbi.TCPTransport{}, r.nodes[i].Addr()); err != nil {
			r.close()
			return nil, err
		}
		if err := r.nodes[i].Cluster.WaitForMB(name, waitFor); err != nil {
			r.close()
			return nil, err
		}
	}
	if err := r.warm(e); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func runMoveIdle(e *env) {
	runWorkload(e, buildMoveIdle, func(e *env) { transferProbes(e, e.sz.moveChunks) })
}

func runMoveXnode(e *env) {
	runWorkload(e, buildMoveXnode, func(e *env) {
		transferProbes(e, e.sz.moveChunks)
		tcpRTTProbe(e)
	})
}

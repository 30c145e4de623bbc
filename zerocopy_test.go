package openmb

// Zero-copy data-path benchmarks and invariants. BenchmarkFigure9cEventZeroCopy
// replays the Figure 9(c) event workload's data-path component — paced pooled
// packets traversing ingress -> switch -> monitor runtime over the ring-buffer
// links — and reports allocs/op.

import (
	"net/netip"
	"testing"
	"time"

	"openmb/internal/bed"
	"openmb/internal/core"
	"openmb/internal/mbox"
	"openmb/internal/mbox/monitor"
	"openmb/internal/mbox/nat"
	"openmb/internal/netsim"
	"openmb/internal/packet"
	"openmb/internal/trace"
)

// eventPathRig is the shared topology: an ingress feeding a switch that
// forwards everything to a PRADS-like monitor runtime.
type eventPathRig struct {
	net  *netsim.Network
	rt   *mbox.Runtime
	pool *packet.Pool
	tpls []*packet.Packet
	sent int
}

const eventPathFlows = 256

func newEventPathRig(tb testing.TB) *eventPathRig {
	tb.Helper()
	n := netsim.New()
	sw := netsim.NewSwitch(n, "s1")
	rt := mbox.New("mon", monitor.New(), mbox.Options{QueueSize: 1 << 15})
	n.Attach("mon", rt)
	if err := n.Connect("s1", "mon", 0); err != nil {
		tb.Fatal(err)
	}
	sw.Install(netsim.Rule{Priority: 1, Match: packet.MatchAll, OutPorts: []string{"mon"}})
	r := &eventPathRig{net: n, rt: rt, pool: packet.NewPool(packet.PoolOptions{})}
	r.tpls = make([]*packet.Packet, eventPathFlows)
	for i := range r.tpls {
		p := mbtestPacket(i)
		r.tpls[i] = p
	}
	tb.Cleanup(func() {
		n.Stop()
		rt.Close()
	})
	return r
}

// mbtestPacket builds a steady-state data packet for flow i whose payload
// matches no service fingerprint, so the monitor's hot path is pure
// record-update work.
func mbtestPacket(i int) *packet.Packet {
	return &packet.Packet{
		SrcIP:   netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}),
		DstIP:   netip.AddrFrom4([4]byte{1, 1, 1, 1}),
		Proto:   packet.ProtoTCP,
		SrcPort: uint16(1024 + i),
		DstPort: 80,
		Flags:   packet.FlagACK,
		TTL:     64,
		Payload: []byte("zzz-steady-state-payload-64-bytes-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"),
	}
}

// inject sends the i-th event packet: a pooled recycled clone.
func (r *eventPathRig) inject(tb testing.TB, i int) {
	if err := r.net.Inject("s1", r.pool.Clone(r.tpls[i%eventPathFlows])); err != nil {
		tb.Fatal(err)
	}
	r.sent++
	// Bound the in-flight window so pooled packets actually recycle.
	if r.sent%1024 == 0 {
		r.drain(tb)
	}
}

func (r *eventPathRig) drain(tb testing.TB) {
	if !r.net.Quiesce(10*time.Second) || !r.rt.Drain(10*time.Second) {
		tb.Fatal("event path did not drain")
	}
}

// BenchmarkFigure9cEventZeroCopy is the data path under the Figure 9(c)
// event workload (paced per-flow packets through the monitor).
func BenchmarkFigure9cEventZeroCopy(b *testing.B) {
	r := newEventPathRig(b)
	// Warm up: materialize every flow's record and size the pool.
	for i := 0; i < 2*eventPathFlows; i++ {
		r.inject(b, i)
	}
	r.drain(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.inject(b, i)
	}
	r.drain(b)
	b.StopTimer()
	if st := r.pool.Stats(); st.Outstanding != 0 {
		b.Fatalf("pool leak after drain: %+v", st)
	}
}

// TestZeroCopySteadyStateAllocs is the data path's allocation invariant: a
// full link hop plus the monitor's HandlePacket costs at most 2 allocs per
// packet.
func TestZeroCopySteadyStateAllocs(t *testing.T) {
	r := newEventPathRig(t)
	for i := 0; i < 2*eventPathFlows; i++ {
		r.inject(t, i)
	}
	r.drain(t)
	i := 0
	processed := r.rt.Metrics().Processed
	allocs := testing.AllocsPerRun(400, func() {
		r.inject(t, i)
		i++
		// Wait for the packet to clear the monitor so its whole cost lands
		// inside the measured window (and the pooled packet is recycled for
		// the next round).
		processed++
		for r.rt.Metrics().Processed < processed {
			time.Sleep(10 * time.Microsecond)
		}
	})
	if allocs > 2 {
		t.Errorf("link hop + monitor HandlePacket: %.2f allocs/packet, want <= 2", allocs)
	}
}

// TestBedTraceReplayBorrowDiscipline runs a full testbed — trace replay
// through a switch into a NAT (which rewrites and re-emits) and a monitor
// tap, with an ingress drop fault — with an accounting pool, and requires
// every borrowed packet released exactly once after quiesce.
func TestBedTraceReplayBorrowDiscipline(t *testing.T) {
	b, err := bed.New(core.Options{QuietPeriod: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Pool = packet.NewPool(packet.PoolOptions{Accounting: true})

	sw := b.AddSwitch("s1")
	dst := b.AddHost("dst", 1<<16)
	natLogic := nat.New(netip.AddrFrom4([4]byte{203, 0, 113, 1}))
	b.AddStandaloneMB("nat1", natLogic, "s2")
	sw2 := b.AddSwitch("s2")
	b.AddStandaloneMB("mon1", monitor.New(), "")
	for _, pair := range [][2]string{{"s1", "nat1"}, {"s1", "mon1"}, {"nat1", "s2"}, {"s2", "dst"}} {
		if err := b.Connect(pair[0], pair[1], 0); err != nil {
			t.Fatal(err)
		}
	}
	sw.Install(netsim.Rule{Priority: 1, Match: packet.MatchAll, OutPorts: []string{"nat1", "mon1"}})
	sw2.Install(netsim.Rule{Priority: 1, Match: packet.MatchAll, OutPorts: []string{"dst"}})
	if err := b.Net.SetFault(netsim.Ingress, "s1", netsim.DropFraction(0.1, 99)); err != nil {
		t.Fatal(err)
	}

	tr := trace.Cloud(trace.CloudConfig{Seed: 11, Flows: 60})
	if err := b.InjectTrace("s1", tr.Packets, 0); err != nil {
		t.Fatal(err)
	}
	if !b.Quiesce(30 * time.Second) {
		t.Fatal("bed did not quiesce")
	}
	if dst.Count() == 0 {
		t.Fatal("no packets made it through the chain")
	}
	// The recording host copies deliveries out and releases the pooled
	// originals at arrival (Host.Received copy-out), so the accounting
	// pool must balance with the records still held — no Reset needed.
	for _, p := range dst.Received() {
		if p.Pooled() {
			t.Fatal("recording host retained a pooled packet; copy-out is not copying")
		}
	}
	if err := b.Pool.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
	// The trace itself must be untouched by the replay (pooled clones
	// isolate it): NAT rewrites must not have leaked into the templates.
	for _, p := range tr.Packets {
		if p.Pooled() {
			t.Fatal("trace packet became pooled")
		}
	}
}

package eval

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

// fwdMonitor adapts the passive monitor into a chain hop: the monitor taps
// every packet exactly as it does on a mirror port, and the wrapper forwards
// the tapped packet to the next NF. Burst delivery stays a burst end to end
// — the whole batch goes through Monitor.ProcessBurst, then every packet is
// re-emitted in order.
type fwdMonitor struct {
	*monitor.Monitor
}

func (f *fwdMonitor) ProcessBurst(ctxs []mbox.Context, pkts []*packet.Packet) {
	f.Monitor.ProcessBurst(ctxs, pkts)
	for i := range pkts {
		ctxs[i].Emit(pkts[i])
	}
}

// chainBurst is the injection batch size, matching the runtimes' ingress
// batch so one injected burst is one ring synchronization per hop.
const chainBurst = 64

// chainOutstanding bounds the packets in flight inside the chain during
// closed-loop injection — far below the 8192-slot ingress rings, so a
// burst of injection can never overflow a downstream ring and drop (a drop
// would make the delivered-count wait hang).
const chainOutstanding = 2048

// ChainRig is the co-located NF chain the burst benchmarks drive: a
// monitor tap, a NAT, and an IPS wired hop to hop by direct handoff
// (SetForwardBurst straight into the next runtime's ingress) — no simulated
// wire, the paper's same-node chain layout.
type ChainRig struct {
	pool      *packet.Pool
	tmpl      []*packet.Packet
	first     *mbox.Runtime
	rts       []*mbox.Runtime
	delivered atomic.Uint64
}

// chainPacket builds the i-th flow's template: an internal (10/8) source —
// so the NAT translates it — toward a non-HTTP port, keeping the IPS's
// analyzer work identical across packets of a flow.
func chainPacket(i int) *packet.Packet {
	return &packet.Packet{
		SrcIP:   netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}),
		DstIP:   netip.AddrFrom4([4]byte{8, 8, 8, 8}),
		Proto:   packet.ProtoTCP,
		SrcPort: uint16(1024 + i%60000),
		DstPort: 8080,
		Flags:   packet.FlagACK,
		Payload: []byte("chain-benchmark-payload-64-bytes-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"),
	}
}

// NewChainRig assembles the chain with the given number of distinct flows
// (0 means 256).
func NewChainRig(flows int) *ChainRig {
	if flows <= 0 {
		flows = 256
	}
	r := &ChainRig{pool: packet.NewPool(packet.PoolOptions{})}
	r.tmpl = make([]*packet.Packet, flows)
	for i := range r.tmpl {
		r.tmpl[i] = chainPacket(i)
	}
	rtMon := mbox.New("chain-mon", &fwdMonitor{Monitor: monitor.New()}, mbox.Options{})
	rtNAT := mbox.New("chain-nat", nat.New(netip.MustParseAddr("192.0.2.1")), mbox.Options{})
	rtIPS := mbox.New("chain-ips", ips.New(), mbox.Options{})
	rtMon.SetForwardBurst(rtNAT.HandleBurst)
	rtNAT.SetForwardBurst(rtIPS.HandleBurst)
	rtIPS.SetForwardBurst(func(ps []*packet.Packet) {
		r.delivered.Add(uint64(len(ps)))
		for _, p := range ps {
			p.Release()
		}
	})
	r.first = rtMon
	r.rts = []*mbox.Runtime{rtMon, rtNAT, rtIPS}
	return r
}

// Delivered returns the packets the chain's terminal hop has emitted.
func (r *ChainRig) Delivered() uint64 { return r.delivered.Load() }

// Runtime returns the i-th hop's runtime (0 = monitor, 1 = NAT, 2 = IPS).
func (r *ChainRig) Runtime(i int) *mbox.Runtime { return r.rts[i] }

// Inject drives n pooled packets through the chain closed-loop (as fast as
// the chain drains, with bounded in-flight population) and waits until the
// terminal hop has delivered them all. Injection is whole bursts.
func (r *ChainRig) Inject(n int) error {
	start := r.delivered.Load()
	deadline := time.Now().Add(120 * time.Second)
	var buf [chainBurst]*packet.Packet
	sent := 0
	for sent < n {
		k := chainBurst
		if n-sent < k {
			k = n - sent
		}
		for i := 0; i < k; i++ {
			buf[i] = r.pool.Clone(r.tmpl[(sent+i)%len(r.tmpl)])
		}
		r.first.HandleBurst(buf[:k])
		sent += k
		for int64(sent)-int64(r.delivered.Load()-start) > chainOutstanding {
			if time.Now().After(deadline) {
				return fmt.Errorf("eval: chain stalled: %d/%d delivered", r.delivered.Load()-start, sent)
			}
			runtime.Gosched()
		}
	}
	return r.waitDelivered(start, n, deadline)
}

func (r *ChainRig) waitDelivered(start uint64, n int, deadline time.Time) error {
	for r.delivered.Load()-start < uint64(n) {
		if time.Now().After(deadline) {
			return fmt.Errorf("eval: chain stalled: %d/%d delivered", r.delivered.Load()-start, n)
		}
		runtime.Gosched()
	}
	return nil
}

// Close shuts the chain down upstream first, so no hop closes while its
// predecessor still forwards into it.
func (r *ChainRig) Close() {
	for _, rt := range r.rts {
		rt.Drain(10 * time.Second)
		rt.Close()
	}
}

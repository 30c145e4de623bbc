package openmb

// Burst data-path tests. The equivalence suite runs every middlebox over
// the same packet sequence twice — its ProcessBurst fed whole bursts by
// HandleBurst, versus the same logic behind oneAtATime (ProcessBurst called
// one packet at a time, so every burst-scoped lock, config parse and lookup
// cache starts afresh per packet) fed by HandlePacket — and requires
// identical emitted wire bytes, identical middlebox state, and identical
// runtime metrics: a burst body whose packets leak into each other fails
// here. BenchmarkChainThroughput is a monitor→NAT→IPS chain with direct
// co-located handoff, where ns/op is ns/packet.

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"openmb/internal/bed"
	"openmb/internal/core"
	"openmb/internal/eval"
	"openmb/internal/mbox"
	"openmb/internal/mbox/ips"
	"openmb/internal/mbox/lb"
	"openmb/internal/mbox/mbtest"
	"openmb/internal/mbox/monitor"
	"openmb/internal/mbox/nat"
	"openmb/internal/mbox/re"
	"openmb/internal/netsim"
	"openmb/internal/obs"
	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/trace"
)

// emitRecorder is a terminal forward sink that records every emitted
// packet's wire form in arrival order.
type emitRecorder struct {
	mu   sync.Mutex
	pkts [][]byte
}

func (e *emitRecorder) fwd(p *packet.Packet) {
	e.mu.Lock()
	e.pkts = append(e.pkts, p.Marshal(nil))
	e.mu.Unlock()
	p.Release()
}

func (e *emitRecorder) fwdBurst(ps []*packet.Packet) {
	e.mu.Lock()
	for _, p := range ps {
		e.pkts = append(e.pkts, p.Marshal(nil))
	}
	e.mu.Unlock()
	for _, p := range ps {
		p.Release()
	}
}

func (e *emitRecorder) bytes() [][]byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([][]byte(nil), e.pkts...)
}

// oneAtATime runs the wrapped logic's ProcessBurst one packet at a time — the
// reference the whole-burst path must match.
type oneAtATime struct{ mbox.Logic }

func (l oneAtATime) ProcessBurst(ctxs []mbox.Context, pkts []*packet.Packet) {
	for i := range pkts {
		l.Logic.ProcessBurst(ctxs[i:i+1], pkts[i:i+1])
	}
}

// runBurstMode hosts logic in a runtime — as is when burst is true, behind
// oneAtATime otherwise — feeds it pooled clones of pkts (whole bursts of
// eqChunk when burst is on, per packet otherwise), drains, checks the pool
// for leaks, and returns the emit record plus the runtime for state/metric
// inspection. The clones are pooled so a rewriting logic takes its in-place
// path (Context.Rewrite) on both sides of the comparison.
const eqChunk = 16

func runBurstMode(t *testing.T, burst bool, logic mbox.Logic, pkts []*packet.Packet) (*emitRecorder, *mbox.Runtime) {
	t.Helper()
	rec, rt := newBurstModeRuntime(t, burst, logic)
	feedBurstMode(t, burst, rt, pkts)
	return rec, rt
}

func newBurstModeRuntime(t *testing.T, burst bool, logic mbox.Logic) (*emitRecorder, *mbox.Runtime) {
	t.Helper()
	if !burst {
		logic = oneAtATime{logic}
	}
	rt := mbox.New("eq", logic, mbox.Options{})
	t.Cleanup(rt.Close)
	rec := &emitRecorder{}
	rt.SetForward(rec.fwd)
	rt.SetForwardBurst(rec.fwdBurst)
	return rec, rt
}

func feedBurstMode(t *testing.T, burst bool, rt *mbox.Runtime, pkts []*packet.Packet) {
	t.Helper()
	pool := packet.NewPool(packet.PoolOptions{Accounting: true})
	if burst {
		for i := 0; i < len(pkts); i += eqChunk {
			j := i + eqChunk
			if j > len(pkts) {
				j = len(pkts)
			}
			batch := make([]*packet.Packet, j-i)
			for k := i; k < j; k++ {
				batch[k-i] = pool.Clone(pkts[k])
			}
			rt.HandleBurst(batch)
		}
	} else {
		for _, p := range pkts {
			rt.HandlePacket(pool.Clone(p))
		}
	}
	if !rt.Drain(30 * time.Second) {
		t.Fatal("runtime did not drain")
	}
	if err := pool.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

// recordIntrospection connects rt to a controller of its own, enables the
// events under codePrefix, and returns a function that waits for every event
// rt has raised and lists them ("code key values") in raise order.
func recordIntrospection(t *testing.T, rt *mbox.Runtime, codePrefix string) func() []string {
	t.Helper()
	ctrl := core.NewController(core.Options{})
	tr := sbi.NewMemTransport()
	if err := ctrl.Serve(tr, "ctrl"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl.Close)
	if err := rt.Connect(tr, "ctrl"); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.WaitForMB("eq", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var evs []*sbi.Event
	ctrl.SubscribeIntrospection(func(_ string, ev *sbi.Event) {
		mu.Lock()
		evs = append(evs, ev)
		mu.Unlock()
	})
	if err := ctrl.SetEventFilter("eq", codePrefix, packet.MatchAll, true); err != nil {
		t.Fatal(err)
	}
	return func() []string {
		t.Helper()
		want := int(rt.Metrics().IntroRaised)
		deadline := time.Now().Add(10 * time.Second)
		for {
			mu.Lock()
			got := append([]*sbi.Event(nil), evs...)
			mu.Unlock()
			if len(got) >= want {
				sort.Slice(got, func(i, j int) bool { return got[i].Seq < got[j].Seq })
				lines := make([]string, len(got))
				for i, ev := range got {
					lines[i] = fmt.Sprintf("%s %s %v", ev.Code, ev.Key, ev.Values)
				}
				return lines
			}
			if time.Now().After(deadline) {
				t.Fatalf("introspection events: %d of %d raised arrived", len(got), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// requireSameEmits fails unless both modes emitted byte-identical packet
// sequences.
func requireSameEmits(t *testing.T, on, off *emitRecorder) {
	t.Helper()
	a, b := on.bytes(), off.bytes()
	if len(a) != len(b) {
		t.Fatalf("emit count diverged: burst=%d per-packet=%d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("emitted packet %d diverged between burst and per-packet paths", i)
		}
	}
}

// requireSameMetrics fails unless the packet-path metric counters match.
func requireSameMetrics(t *testing.T, on, off *mbox.Runtime) {
	t.Helper()
	a, b := on.Metrics(), off.Metrics()
	type cmp struct {
		name   string
		av, bv uint64
	}
	for _, c := range []cmp{
		{"Processed", a.Processed, b.Processed},
		{"Emitted", a.Emitted, b.Emitted},
		{"DroppedPackets", a.DroppedPackets, b.DroppedPackets},
		{"IntroRaised", a.IntroRaised, b.IntroRaised},
		{"EventsRaised", a.EventsRaised, b.EventsRaised},
	} {
		if c.av != c.bv {
			t.Errorf("%s diverged: burst=%d per-packet=%d", c.name, c.av, c.bv)
		}
	}
}

// eqPacket builds a deterministic test packet; reverse swaps the flow's
// direction.
func eqPacket(srcIP netip.Addr, srcPort uint16, dstIP netip.Addr, dstPort uint16, flags uint8, payload string, ts int64, reverse bool) *packet.Packet {
	p := &packet.Packet{
		SrcIP: srcIP, DstIP: dstIP, Proto: packet.ProtoTCP,
		SrcPort: srcPort, DstPort: dstPort,
		Flags: flags, TTL: 64, Timestamp: ts,
	}
	if payload != "" {
		p.Payload = []byte(payload)
	}
	if reverse {
		p.SrcIP, p.DstIP = p.DstIP, p.SrcIP
		p.SrcPort, p.DstPort = p.DstPort, p.SrcPort
	}
	return p
}

func TestBurstEquivalenceMonitor(t *testing.T) {
	server := netip.AddrFrom4([4]byte{1, 1, 1, 1})
	var pkts []*packet.Packet
	ts := int64(0)
	for f := 0; f < 40; f++ {
		src := netip.AddrFrom4([4]byte{10, 0, 1, byte(f)})
		sport := uint16(2000 + f)
		payload := "zzz-not-a-fingerprint"
		if f%3 == 0 {
			payload = "GET /index.html HTTP/1.1"
		}
		pkts = append(pkts,
			eqPacket(src, sport, server, 80, packet.FlagSYN, "", ts, false),
			eqPacket(src, sport, server, 80, packet.FlagACK, payload, ts+1, false),
			eqPacket(src, sport, server, 80, packet.FlagACK, "HTTP/1.1 200 OK", ts+2, true),
			eqPacket(src, sport, server, 80, packet.FlagACK, payload, ts+3, false),
		)
		ts += 10
	}
	monOn, monOff := monitor.New(), monitor.New()
	recOn, rtOn := runBurstMode(t, true, monOn, pkts)
	recOff, rtOff := runBurstMode(t, false, monOff, pkts)
	requireSameEmits(t, recOn, recOff)
	requireSameMetrics(t, rtOn, rtOff)
	if !reflect.DeepEqual(monOn.Snapshot(), monOff.Snapshot()) {
		t.Errorf("monitor snapshots diverged:\nburst:      %+v\nper-packet: %+v", monOn.Snapshot(), monOff.Snapshot())
	}
}

func TestBurstEquivalenceNAT(t *testing.T) {
	extIP := netip.AddrFrom4([4]byte{203, 0, 113, 9})
	server := netip.AddrFrom4([4]byte{8, 8, 4, 4})
	var pkts []*packet.Packet
	ts := int64(0)
	// Outbound runs per flow (exercising the same-flow lookup cache),
	// interleaved across flows, then inbound to the deterministically
	// allocated ports (20000, 20001, ...), one unmapped inbound (dropped),
	// and pass-through traffic the NAT does not own.
	flow := func(f int, ts int64) *packet.Packet {
		return eqPacket(netip.AddrFrom4([4]byte{10, 2, 0, byte(f)}), uint16(4000+f), server, 443, packet.FlagACK, "out", ts, false)
	}
	for f := 0; f < 12; f++ {
		for k := 0; k < 3; k++ {
			pkts = append(pkts, flow(f, ts))
			ts++
		}
	}
	for f := 0; f < 12; f++ {
		pkts = append(pkts, eqPacket(server, 443, extIP, uint16(20000+f), packet.FlagACK, "in", ts, false))
		ts++
	}
	pkts = append(pkts,
		eqPacket(server, 443, extIP, 29999, packet.FlagACK, "unmapped", ts, false),
		eqPacket(netip.AddrFrom4([4]byte{172, 16, 0, 1}), 5555, server, 80, packet.FlagACK, "pass", ts+1, false),
	)
	// Idle expiry in the middle of a burst (packet 50 is the third of its
	// 16-packet burst): the clock jumps past the 1000 ns timeout, every
	// mapping above expires, and the flows that keep talking are re-created
	// on fresh ports. Inbound traffic to an expired port now drops, to a
	// fresh port translates. A second jump expires only the mappings that
	// stayed idle across it, and a late (out-of-order) packet moves neither
	// the clock nor the outcome.
	pkts = append(pkts, flow(0, 2000))
	for f := 1; f < 6; f++ {
		pkts = append(pkts, flow(f, int64(2000+f)), flow(f, int64(2000+f)))
	}
	pkts = append(pkts,
		eqPacket(server, 443, extIP, 20003, packet.FlagACK, "stale", 2010, false),
		eqPacket(server, 443, extIP, 20012, packet.FlagACK, "fresh", 2011, false),
		flow(7, 1500), // late: stamped by the clock (2011), not by its own timestamp
		flow(2, 2600),
		eqPacket(server, 443, extIP, 20016, packet.FlagACK, "keep", 2700, false), // flow 4's fresh port
	)
	for f := 8; f < 12; f++ {
		pkts = append(pkts, flow(f, int64(3100+f))) // expires all but flows 2 and 4
	}
	// One flow back to back with a clock jump between its packets: each
	// packet expires the mapping the one before it just used, so the burst
	// body's remembered last mapping must be dropped and the flow re-created
	// on a fresh port. Of two adjacent pairs at least one shares a burst.
	pkts = append(pkts, flow(4, 5000), flow(4, 7000), flow(4, 9000))
	natOn, natOff := nat.New(extIP), nat.New(extIP)
	for _, n := range []*nat.NAT{natOn, natOff} {
		if err := n.Config().Set("idle_timeout_ns", []string{"1000"}); err != nil {
			t.Fatal(err)
		}
	}
	recOn, rtOn := newBurstModeRuntime(t, true, natOn)
	recOff, rtOff := newBurstModeRuntime(t, false, natOff)
	eventsOn := recordIntrospection(t, rtOn, "nat.mapping.")
	eventsOff := recordIntrospection(t, rtOff, "nat.mapping.")
	feedBurstMode(t, true, rtOn, pkts)
	feedBurstMode(t, false, rtOff, pkts)
	requireSameEmits(t, recOn, recOff)
	requireSameMetrics(t, rtOn, rtOff)
	on, off := eventsOn(), eventsOff()
	if !reflect.DeepEqual(on, off) {
		t.Errorf("mapping events diverged:\nburst:      %q\nper-packet: %q", on, off)
	}
	created, expired := 0, 0
	for _, line := range off {
		switch {
		case strings.HasPrefix(line, "nat.mapping.created "):
			created++
		case strings.HasPrefix(line, "nat.mapping.expired "):
			expired++
		}
	}
	if created != 12+6+1+4+3 || expired != 12+5+6+2 {
		t.Errorf("mapping events: %d created, %d expired; the sequence creates 26 and expires 25", created, expired)
	}
	if natOn.Drops() != natOff.Drops() || natOff.Drops() != (nat.Drops{NoMapping: 2}) {
		t.Errorf("drops: burst=%+v per-packet=%+v, want 2 NoMapping each", natOn.Drops(), natOff.Drops())
	}
	if natOn.MappingCount() != natOff.MappingCount() || natOff.MappingCount() != 1 {
		t.Fatalf("mapping count: burst=%d per-packet=%d, want 1", natOn.MappingCount(), natOff.MappingCount())
	}
	for f := 0; f < 12; f++ {
		src := netip.AddrFrom4([4]byte{10, 2, 0, byte(f)})
		a, okA := natOn.Lookup(src, uint16(4000+f), packet.ProtoTCP)
		b, okB := natOff.Lookup(src, uint16(4000+f), packet.ProtoTCP)
		if okA != okB || a != b {
			t.Errorf("flow %d mapping diverged: burst=(%d,%v) per-packet=(%d,%v)", f, a, okA, b, okB)
		}
	}
}

func TestBurstEquivalenceIPS(t *testing.T) {
	var pkts []*packet.Packet
	ts := int64(0)
	// A port scan (12 distinct destination ports from one source, tripping
	// the threshold-10 detector), HTTP conversations on port 80, and FIN
	// terminations that log connections.
	scanner := netip.AddrFrom4([4]byte{10, 9, 9, 9})
	victim := netip.AddrFrom4([4]byte{1, 2, 3, 4})
	for port := 0; port < 12; port++ {
		pkts = append(pkts, eqPacket(scanner, uint16(6000+port), victim, uint16(8000+port), packet.FlagSYN, "", ts, false))
		ts++
	}
	web := netip.AddrFrom4([4]byte{5, 6, 7, 8})
	for f := 0; f < 6; f++ {
		src := netip.AddrFrom4([4]byte{10, 3, 0, byte(f)})
		sport := uint16(7000 + f)
		pkts = append(pkts,
			eqPacket(src, sport, web, 80, packet.FlagSYN, "", ts, false),
			eqPacket(src, sport, web, 80, packet.FlagSYN|packet.FlagACK, "", ts+1, true),
			eqPacket(src, sport, web, 80, packet.FlagACK, "GET /a HTTP/1.1\r\nHost: h\r\n\r\n", ts+2, false),
			eqPacket(src, sport, web, 80, packet.FlagACK, "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n", ts+3, true),
			eqPacket(src, sport, web, 80, packet.FlagFIN|packet.FlagACK, "", ts+4, false),
			eqPacket(src, sport, web, 80, packet.FlagFIN|packet.FlagACK, "", ts+5, true),
		)
		ts += 10
	}
	ipsOn, ipsOff := ips.New(), ips.New()
	recOn, rtOn := runBurstMode(t, true, ipsOn, pkts)
	recOff, rtOff := runBurstMode(t, false, ipsOff, pkts)
	requireSameEmits(t, recOn, recOff)
	requireSameMetrics(t, rtOn, rtOff)
	aAl, aDr, aCl, aSc := ipsOn.Report()
	bAl, bDr, bCl, bSc := ipsOff.Report()
	if aAl != bAl || aDr != bDr || aCl != bCl || aSc != bSc {
		t.Errorf("IPS reports diverged: burst=(%d,%d,%d,%d) per-packet=(%d,%d,%d,%d)",
			aAl, aDr, aCl, aSc, bAl, bDr, bCl, bSc)
	}
	if ipsOn.ConnCount() != ipsOff.ConnCount() {
		t.Errorf("conn count diverged: burst=%d per-packet=%d", ipsOn.ConnCount(), ipsOff.ConnCount())
	}
	for _, stream := range []string{"conn", "alert", "http"} {
		if !reflect.DeepEqual(rtOn.Log(stream), rtOff.Log(stream)) {
			t.Errorf("%s log diverged:\nburst:      %v\nper-packet: %v", stream, rtOn.Log(stream), rtOff.Log(stream))
		}
	}
}

func TestBurstEquivalenceLB(t *testing.T) {
	vip := netip.AddrFrom4([4]byte{192, 0, 2, 10})
	backends := []lb.Backend{
		{IP: netip.AddrFrom4([4]byte{10, 10, 0, 1}), Port: 8080},
		{IP: netip.AddrFrom4([4]byte{10, 10, 0, 2}), Port: 8080},
		{IP: netip.AddrFrom4([4]byte{10, 10, 0, 3}), Port: 8080},
	}
	var pkts []*packet.Packet
	ts := int64(0)
	// Interleaved clients (round-robin binding order must be preserved by
	// the burst path), repeated packets per client (the lookup cache), and
	// pass-through traffic not addressed to the VIP.
	for round := 0; round < 3; round++ {
		for c := 0; c < 15; c++ {
			src := netip.AddrFrom4([4]byte{10, 4, 0, byte(c)})
			pkts = append(pkts, eqPacket(src, uint16(9000+c), vip, 80, packet.FlagACK, "req", ts, false))
			ts++
		}
	}
	pkts = append(pkts, eqPacket(netip.AddrFrom4([4]byte{10, 4, 0, 99}), 9099, netip.AddrFrom4([4]byte{9, 9, 9, 9}), 80, packet.FlagACK, "other", ts, false))
	lbOn := lb.New(vip, 80, backends)
	lbOff := lb.New(vip, 80, backends)
	recOn, rtOn := runBurstMode(t, true, lbOn, pkts)
	recOff, rtOff := runBurstMode(t, false, lbOff, pkts)
	requireSameEmits(t, recOn, recOff)
	requireSameMetrics(t, rtOn, rtOff)
	if lbOn.AssignmentCount() != lbOff.AssignmentCount() {
		t.Errorf("assignment count diverged: burst=%d per-packet=%d", lbOn.AssignmentCount(), lbOff.AssignmentCount())
	}
	if !reflect.DeepEqual(lbOn.BackendLoads(), lbOff.BackendLoads()) {
		t.Errorf("backend loads diverged:\nburst:      %v\nper-packet: %v", lbOn.BackendLoads(), lbOff.BackendLoads())
	}
}

func TestBurstEquivalenceRE(t *testing.T) {
	run := func(burst bool) ([][]byte, *re.Encoder, *re.Decoder) {
		enc := re.NewEncoder(1 << 16)
		dec := re.NewDecoder(1 << 16)
		var encLogic, decLogic mbox.Logic = enc, dec
		if !burst {
			encLogic, decLogic = oneAtATime{enc}, oneAtATime{dec}
		}
		rtE := mbox.New("enc", encLogic, mbox.Options{})
		rtD := mbox.New("dec", decLogic, mbox.Options{})
		t.Cleanup(func() { rtE.Close(); rtD.Close() })
		rec := &emitRecorder{}
		rtE.SetForward(rtD.HandlePacket)
		rtE.SetForwardBurst(rtD.HandleBurst)
		rtD.SetForward(rec.fwd)
		rtD.SetForwardBurst(rec.fwdBurst)

		chunk := bytes.Repeat([]byte("redundant-region-for-the-cache!"), 8)
		server := netip.AddrFrom4([4]byte{8, 8, 8, 8})
		var pkts []*packet.Packet
		ts := int64(0)
		for i := 0; i < 48; i++ {
			src := netip.AddrFrom4([4]byte{10, 5, 0, byte(i % 6)})
			payload := string(chunk) + "unique-tail"
			if i%7 == 0 {
				payload = "short-novel-payload"
			}
			pkts = append(pkts, eqPacket(src, uint16(10000+i%6), server, 9000, packet.FlagACK, payload, ts, false))
			ts++
		}
		if burst {
			for i := 0; i < len(pkts); i += eqChunk {
				j := i + eqChunk
				if j > len(pkts) {
					j = len(pkts)
				}
				batch := make([]*packet.Packet, j-i)
				for k := i; k < j; k++ {
					batch[k-i] = pkts[k].Clone()
				}
				rtE.HandleBurst(batch)
			}
		} else {
			for _, p := range pkts {
				rtE.HandlePacket(p.Clone())
			}
		}
		if !rtE.Drain(30*time.Second) || !rtD.Drain(30*time.Second) {
			t.Fatal("RE chain did not drain")
		}
		return rec.bytes(), enc, dec
	}
	outOn, encOn, decOn := run(true)
	outOff, encOff, decOff := run(false)
	if len(outOn) != len(outOff) {
		t.Fatalf("decoded emit count diverged: burst=%d per-packet=%d", len(outOn), len(outOff))
	}
	for i := range outOn {
		if !bytes.Equal(outOn[i], outOff[i]) {
			t.Fatalf("decoded packet %d diverged between burst and per-packet paths", i)
		}
	}
	aIn, aOut, aMatch, aM := encOn.Report()
	bIn, bOut, bMatch, bM := encOff.Report()
	if aIn != bIn || aOut != bOut || aMatch != bMatch || aM != bM {
		t.Errorf("encoder reports diverged: burst=(%d,%d,%d,%d) per-packet=(%d,%d,%d,%d)",
			aIn, aOut, aMatch, aM, bIn, bOut, bMatch, bM)
	}
	if decOn.CachePos() != decOff.CachePos() {
		t.Errorf("decoder cache position diverged: burst=%d per-packet=%d", decOn.CachePos(), decOff.CachePos())
	}
}

// TestBurstSteadyStateAllocs is the burst path's allocation invariant: a
// whole 64-packet burst through the three-hop chain (pooled injection,
// direct handoff, vectorized ProcessBurst at every hop) allocates nothing
// per packet in steady state.
func TestBurstSteadyStateAllocs(t *testing.T) {
	rig := eval.NewChainRig(64)
	defer rig.Close()
	// Warm up: materialize every flow's records at all hops and size the
	// packet pool to the in-flight window.
	if err := rig.Inject(8192); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := rig.Inject(64); err != nil {
			t.Fatal(err)
		}
	})
	if perPacket := allocs / 64; perPacket > 0.5 {
		t.Errorf("burst chain steady state: %.3f allocs/packet (%.1f per 64-packet burst), want ~0", perPacket, allocs)
	}
}

// tapTwice is a tap-and-forward hop that emits each packet it processes
// twice (CounterLogic emits it once already): the first Emit passes the
// runtime's borrow on, the second has to take a reference of its own.
type tapTwice struct{ *mbtest.CounterLogic }

func (l tapTwice) ProcessBurst(ctxs []mbox.Context, pkts []*packet.Packet) {
	l.CounterLogic.ProcessBurst(ctxs, pkts)
	for i, p := range pkts {
		ctxs[i].Emit(p)
	}
}

// dropOdd forwards every second packet and drops the rest, so one burst
// holds both packets whose borrow moved downstream and packets the runtime
// still has to release itself.
type dropOdd struct {
	*mbtest.CounterLogic
	seen int
}

func (l *dropOdd) ProcessBurst(ctxs []mbox.Context, pkts []*packet.Packet) {
	for i, p := range pkts {
		if l.seen++; l.seen%2 == 0 {
			ctxs[i].Emit(p)
		}
	}
}

// TestBurstChainBorrowDiscipline replays a trace through a full testbed
// chain — switch, a tap that emits every packet twice, NAT, IPS and a hop
// that drops every other packet, all colocated (direct handoff), second
// switch, recording host — with an ingress drop fault, and requires every
// borrowed pooled packet released exactly once after quiesce (the accounting
// pool panics on a release too many and lists a release too few).
func TestBurstChainBorrowDiscipline(t *testing.T) {
	b, err := bed.New(core.Options{QuietPeriod: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Pool = packet.NewPool(packet.PoolOptions{Accounting: true})

	sw := b.AddSwitch("s1")
	sw2 := b.AddSwitch("s2")
	dst := b.AddHost("dst", 1<<16)
	tap := b.AddStandaloneMB("tap1", tapTwice{mbtest.NewCounterLogic(0)}, "")
	b.AddStandaloneMB("nat1", nat.New(netip.AddrFrom4([4]byte{203, 0, 113, 1})), "")
	ipsRT := b.AddStandaloneMB("ips1", ips.New(), "")
	half := b.AddStandaloneMB("half1", &dropOdd{CounterLogic: mbtest.NewCounterLogic(0)}, "s2")
	for _, pair := range [][2]string{{"tap1", "nat1"}, {"nat1", "ips1"}, {"ips1", "half1"}} {
		if err := b.Colocate(pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, pair := range [][2]string{{"s1", "tap1"}, {"half1", "s2"}, {"s2", "dst"}} {
		if err := b.Connect(pair[0], pair[1], 0); err != nil {
			t.Fatal(err)
		}
	}
	sw.Install(netsim.Rule{Priority: 1, Match: packet.MatchAll, OutPorts: []string{"tap1"}})
	sw2.Install(netsim.Rule{Priority: 1, Match: packet.MatchAll, OutPorts: []string{"dst"}})
	if err := b.Net.SetFault(netsim.Ingress, "s1", netsim.DropFraction(0.1, 23)); err != nil {
		t.Fatal(err)
	}

	tr := trace.Cloud(trace.CloudConfig{Seed: 23, Flows: 80})
	if err := b.InjectTrace("s1", tr.Packets, 0); err != nil {
		t.Fatal(err)
	}
	if !b.Quiesce(30 * time.Second) {
		t.Fatal("bed did not quiesce")
	}
	// Conservation hop by hop: nothing is shed at a ring, the tap doubles,
	// the last hop halves, and what it emits is what the host receives.
	tm, im, hm := tap.Metrics(), ipsRT.Metrics(), half.Metrics()
	if tm.Processed == 0 || tm.Emitted != 2*tm.Processed {
		t.Errorf("tap processed %d packets and emitted %d, want twice as many", tm.Processed, tm.Emitted)
	}
	if hm.Processed != im.Emitted || hm.Emitted != hm.Processed/2 || uint64(dst.Count()) != hm.Emitted {
		t.Errorf("IPS emitted %d; last hop processed %d, emitted %d; host received %d", im.Emitted, hm.Processed, hm.Emitted, dst.Count())
	}
	for _, name := range []string{"tap1", "nat1", "ips1", "half1"} {
		if d := b.MB(name).Metrics().DroppedPackets; d != 0 {
			t.Errorf("%s shed %d packets at its ring", name, d)
		}
	}
	if dst.Count() == 0 {
		t.Fatal("no packets made it through the chain")
	}
	if err := b.Pool.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestChainTracerDisarmedAllocs pins the flow tracer's disarmed cost on the
// full chain data path: after an arm/disarm cycle (the worst case — the
// tracer machinery exists, only the atomic pointer is nil) the burst chain's
// zero-allocation steady state must hold exactly as without a tracer.
func TestChainTracerDisarmedAllocs(t *testing.T) {
	rig := eval.NewChainRig(64)
	defer rig.Close()
	for i := 0; i < 3; i++ {
		rig.Runtime(i).ArmTrace(obs.TraceSpec{Match: packet.MatchAll, Budget: 8})
	}
	if err := rig.Inject(8192); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rig.Runtime(i).DisarmTrace()
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := rig.Inject(64); err != nil {
			t.Fatal(err)
		}
	})
	if perPacket := allocs / 64; perPacket > 0.5 {
		t.Errorf("disarmed-tracer chain steady state: %.3f allocs/packet (%.1f per 64-packet burst), want ~0", perPacket, allocs)
	}
}

// BenchmarkChainThroughput drives the co-located monitor→NAT→IPS chain
// closed-loop; ns/op is ns/packet end to end.
func BenchmarkChainThroughput(b *testing.B) {
	rig := eval.NewChainRig(0)
	defer rig.Close()
	benchChainInject(b, rig, 4096)
}

// BenchmarkChainThroughputFlows16k is BenchmarkChainThroughput over 16384
// round-robin flows instead of 256. Nothing on the packet path may cost
// O(flow table), so this row should sit within cache-miss distance of the
// 256-flow one; a per-burst scan of any NF's table shows here first. That
// distance is the three per-flow lookups missing cache: on a 2-vCPU Xeon
// container, four alternated runs read this row 80–210 ns/packet above the
// 256-flow one (424–643 against 314–435 ns/packet).
func BenchmarkChainThroughputFlows16k(b *testing.B) {
	rig := eval.NewChainRig(16384)
	defer rig.Close()
	benchChainInject(b, rig, 16384)
}

// BenchmarkChainThroughputTracerArmed is BenchmarkChainThroughput with the
// flow tracer armed on every hop with a predicate no chain flow satisfies —
// the armed-but-filtered overhead: two compiled-predicate calls per hook,
// zero captures, zero allocations. Compare against BenchmarkChainThroughput
// for the tracer's armed cost; the disarmed cost is pinned separately by
// BenchmarkTracerDisarmed in internal/obs.
func BenchmarkChainThroughputTracerArmed(b *testing.B) {
	rig := eval.NewChainRig(0)
	defer rig.Close()
	m, err := packet.ParseFieldMatch("nw_src=172.16.0.1")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rig.Runtime(i).ArmTrace(obs.TraceSpec{Match: m})
	}
	benchChainInject(b, rig, 4096)
}

// benchChainInject warms the rig (every flow's state exists before the
// clock starts) and times b.N packets through it.
func benchChainInject(b *testing.B, rig *eval.ChainRig, warm int) {
	if err := rig.Inject(warm); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := rig.Inject(b.N); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
}

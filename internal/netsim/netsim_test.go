package netsim

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"openmb/internal/packet"
)

func mkPacket(srcLast byte, dstPort uint16) *packet.Packet {
	return &packet.Packet{
		SrcIP:   netip.AddrFrom4([4]byte{10, 0, 0, srcLast}),
		DstIP:   netip.AddrFrom4([4]byte{1, 1, 1, 1}),
		Proto:   packet.ProtoTCP,
		SrcPort: 1000, DstPort: dstPort,
		Payload: []byte("x"),
	}
}

func topo(t *testing.T) (*Network, *Switch, *Host, *Host) {
	t.Helper()
	n := New()
	sw := NewSwitch(n, "s1")
	a := NewHost(n, "a", 0)
	b := NewHost(n, "b", 0)
	for _, pair := range [][2]string{{"a", "s1"}, {"s1", "b"}} {
		if err := n.Connect(pair[0], pair[1], 0); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(n.Stop)
	return n, sw, a, b
}

func TestForwardingBasic(t *testing.T) {
	n, sw, a, b := topo(t)
	sw.Install(Rule{Priority: 10, Match: packet.MatchAll, OutPorts: []string{"b"}})
	if err := a.Send("s1", mkPacket(1, 80)); err != nil {
		t.Fatal(err)
	}
	if !n.Quiesce(time.Second) {
		t.Fatal("network did not quiesce")
	}
	if b.Count() != 1 {
		t.Fatalf("b received %d packets, want 1", b.Count())
	}
}

func TestTableMissDrops(t *testing.T) {
	n, sw, a, b := topo(t)
	m, _ := packet.ParseFieldMatch("[tp_dst=443]")
	sw.Install(Rule{Priority: 10, Match: m, OutPorts: []string{"b"}})
	a.Send("s1", mkPacket(1, 80))
	n.Quiesce(time.Second)
	if b.Count() != 0 {
		t.Fatal("non-matching packet was forwarded")
	}
	if sw.TableMisses() != 1 {
		t.Fatalf("table misses: %d", sw.TableMisses())
	}
}

func TestPriorityOrdering(t *testing.T) {
	n, sw, a, b := topo(t)
	c := NewHost(n, "c", 0)
	if err := n.Connect("s1", "c", 0); err != nil {
		t.Fatal(err)
	}
	http, _ := packet.ParseFieldMatch("[tp_dst=80]")
	sw.Install(Rule{Priority: 1, Match: packet.MatchAll, OutPorts: []string{"b"}})
	sw.Install(Rule{Priority: 10, Match: http, OutPorts: []string{"c"}})
	a.Send("s1", mkPacket(1, 80))
	a.Send("s1", mkPacket(1, 443))
	n.Quiesce(time.Second)
	if c.Count() != 1 || b.Count() != 1 {
		t.Fatalf("c=%d b=%d, want 1/1", c.Count(), b.Count())
	}
}

func TestSamePriorityNewestWins(t *testing.T) {
	n, sw, a, b := topo(t)
	c := NewHost(n, "c", 0)
	n.Connect("s1", "c", 0)
	sw.Install(Rule{Priority: 5, Match: packet.MatchAll, OutPorts: []string{"b"}})
	sw.Install(Rule{Priority: 5, Match: packet.MatchAll, OutPorts: []string{"c"}})
	a.Send("s1", mkPacket(1, 80))
	n.Quiesce(time.Second)
	if c.Count() != 1 || b.Count() != 0 {
		t.Fatalf("c=%d b=%d: newest same-priority rule should win", c.Count(), b.Count())
	}
}

func TestRuleRemoval(t *testing.T) {
	n, sw, a, b := topo(t)
	r := sw.Install(Rule{Priority: 10, Match: packet.MatchAll, OutPorts: []string{"b"}})
	if !sw.Remove(r.ID) {
		t.Fatal("remove failed")
	}
	if sw.Remove(r.ID) {
		t.Fatal("double remove succeeded")
	}
	a.Send("s1", mkPacket(1, 80))
	n.Quiesce(time.Second)
	if b.Count() != 0 {
		t.Fatal("removed rule still forwards")
	}
}

func TestMultiPortMirroring(t *testing.T) {
	n, sw, a, b := topo(t)
	c := NewHost(n, "c", 0)
	n.Connect("s1", "c", 0)
	sw.Install(Rule{Priority: 10, Match: packet.MatchAll, OutPorts: []string{"b", "c"}})
	a.Send("s1", mkPacket(1, 80))
	n.Quiesce(time.Second)
	if b.Count() != 1 || c.Count() != 1 {
		t.Fatalf("mirror: b=%d c=%d", b.Count(), c.Count())
	}
	// Mirrored copies must not share payload storage.
	pb, pc := b.Received()[0], c.Received()[0]
	pb.Payload[0] = 'Z'
	if pc.Payload[0] == 'Z' {
		t.Fatal("mirrored packets share payload")
	}
}

func TestLinkLatency(t *testing.T) {
	n := New()
	defer n.Stop()
	a := NewHost(n, "a", 0)
	NewHost(n, "b", 0)
	if err := n.Connect("a", "b", 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	a.Send("b", mkPacket(1, 80))
	n.Quiesce(time.Second)
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("delivery took %v, want >=20ms latency", d)
	}
}

func TestInFlightRace(t *testing.T) {
	// Packets already on a slow link keep flowing to the OLD destination
	// after a routing change — the race at the heart of the paper.
	n := New()
	defer n.Stop()
	sw := NewSwitch(n, "s1")
	a := NewHost(n, "a", 0)
	old := NewHost(n, "old", 0)
	newH := NewHost(n, "new", 0)
	n.Connect("a", "s1", 0)
	n.Connect("s1", "old", 10*time.Millisecond)
	n.Connect("s1", "new", 0)
	r := sw.Install(Rule{Priority: 10, Match: packet.MatchAll, OutPorts: []string{"old"}})
	for i := 0; i < 5; i++ {
		a.Send("s1", mkPacket(byte(i), 80))
	}
	// Wait until the switch has put all 5 packets onto the slow link, then
	// update routing while they are still in flight.
	for deadline := time.Now().Add(time.Second); sw.Forwarded() < 5; {
		if time.Now().After(deadline) {
			t.Fatal("switch never forwarded the initial packets")
		}
		time.Sleep(100 * time.Microsecond)
	}
	sw.Remove(r.ID)
	sw.Install(Rule{Priority: 10, Match: packet.MatchAll, OutPorts: []string{"new"}})
	a.Send("s1", mkPacket(99, 80))
	n.Quiesce(2 * time.Second)
	if old.Count() == 0 {
		t.Fatal("no packets reached the old destination; race window not modeled")
	}
	if newH.Count() == 0 {
		t.Fatal("no packets reached the new destination after update")
	}
	if old.Count()+newH.Count() != 6 {
		t.Fatalf("lost packets: old=%d new=%d", old.Count(), newH.Count())
	}
}

func TestFaultInjectionDrop(t *testing.T) {
	n := New()
	defer n.Stop()
	a := NewHost(n, "a", 0)
	b := NewHost(n, "b", 0)
	n.Connect("a", "b", 0)
	if err := n.SetFault("a", "b", func(*packet.Packet) Fault { return FaultDrop }); err != nil {
		t.Fatal(err)
	}
	a.Send("b", mkPacket(1, 80))
	n.Quiesce(time.Second)
	if b.Count() != 0 || n.Dropped() != 1 {
		t.Fatalf("drop fault: count=%d dropped=%d", b.Count(), n.Dropped())
	}
	// Clearing restores delivery.
	n.SetFault("a", "b", nil)
	a.Send("b", mkPacket(1, 80))
	n.Quiesce(time.Second)
	if b.Count() != 1 {
		t.Fatal("fault not cleared")
	}
}

func TestFaultInjectionDuplicate(t *testing.T) {
	n := New()
	defer n.Stop()
	a := NewHost(n, "a", 0)
	b := NewHost(n, "b", 0)
	n.Connect("a", "b", 0)
	n.SetFault("a", "b", func(*packet.Packet) Fault { return FaultDuplicate })
	a.Send("b", mkPacket(1, 80))
	n.Quiesce(time.Second)
	if b.Count() != 2 {
		t.Fatalf("duplicate fault: count=%d", b.Count())
	}
}

func TestDropFractionDeterministic(t *testing.T) {
	h1 := DropFraction(0.5, 42)
	h2 := DropFraction(0.5, 42)
	p := mkPacket(1, 80)
	for i := 0; i < 100; i++ {
		if h1(p) != h2(p) {
			t.Fatal("DropFraction not deterministic for equal seeds")
		}
	}
}

func TestSendErrors(t *testing.T) {
	n := New()
	defer n.Stop()
	NewHost(n, "a", 0)
	if err := n.Send("a", "nowhere", mkPacket(1, 80)); err == nil {
		t.Fatal("send without link should fail")
	}
	if err := n.Inject("nowhere", mkPacket(1, 80)); err == nil {
		t.Fatal("inject to unknown endpoint should fail")
	}
	if err := n.Connect("a", "missing", 0); err == nil {
		t.Fatal("connect to unknown endpoint should fail")
	}
}

func TestStopRejectsSends(t *testing.T) {
	n := New()
	a := NewHost(n, "a", 0)
	NewHost(n, "b", 0)
	n.Connect("a", "b", 0)
	n.Stop()
	if err := a.Send("b", mkPacket(1, 80)); err == nil {
		t.Fatal("send after stop should fail")
	}
}

func TestHostRecordLimit(t *testing.T) {
	n := New()
	defer n.Stop()
	a := NewHost(n, "a", 0)
	b := NewHost(n, "b", 3)
	n.Connect("a", "b", 0)
	for i := 0; i < 10; i++ {
		a.Send("b", mkPacket(byte(i), 80))
	}
	n.Quiesce(time.Second)
	if len(b.Received()) != 3 {
		t.Fatalf("record limit: %d", len(b.Received()))
	}
	if b.Count() != 10 {
		t.Fatalf("count past limit: %d", b.Count())
	}
	b.Reset()
	if b.Count() != 0 || len(b.Received()) != 0 {
		t.Fatal("reset failed")
	}
}

func TestConcurrentSendersNoLoss(t *testing.T) {
	n := New()
	defer n.Stop()
	sw := NewSwitch(n, "s1")
	b := NewHost(n, "b", 0)
	NewHost(n, "a", 0)
	n.Connect("a", "s1", 0)
	n.Connect("s1", "b", 0)
	sw.Install(Rule{Priority: 1, Match: packet.MatchAll, OutPorts: []string{"b"}})
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				n.Send("a", "s1", mkPacket(byte(w), 80))
			}
		}(w)
	}
	wg.Wait()
	if !n.Quiesce(5 * time.Second) {
		t.Fatal("did not quiesce")
	}
	if b.Count() != workers*per {
		t.Fatalf("delivered %d, want %d", b.Count(), workers*per)
	}
}

func TestRulePacketCounters(t *testing.T) {
	n, sw, a, _ := topo(t)
	r := sw.Install(Rule{Priority: 10, Match: packet.MatchAll, OutPorts: []string{"b"}})
	for i := 0; i < 7; i++ {
		a.Send("s1", mkPacket(1, 80))
	}
	n.Quiesce(time.Second)
	if r.Packets() != 7 {
		t.Fatalf("rule counter: %d", r.Packets())
	}
	if sw.Forwarded() != 7 {
		t.Fatalf("forwarded counter: %d", sw.Forwarded())
	}
}

func BenchmarkSwitchLookup(b *testing.B) {
	n := New()
	defer n.Stop()
	sw := NewSwitch(n, "s1")
	sink := NewHost(n, "sink", 1)
	_ = sink
	n.Connect("s1", "sink", 0)
	for i := 0; i < 50; i++ {
		m, _ := packet.ParseFieldMatch("[tp_dst=9999]")
		sw.Install(Rule{Priority: 100 - i, Match: m, OutPorts: []string{"sink"}})
	}
	sw.Install(Rule{Priority: 1, Match: packet.MatchAll, OutPorts: []string{"sink"}})
	burst := []*packet.Packet{mkPacket(1, 80)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.HandleBurst(burst)
	}
}

func TestLinkPreservesFIFOOrder(t *testing.T) {
	// RE's position-synchronized caches depend on per-link FIFO delivery.
	n := New()
	defer n.Stop()
	a := NewHost(n, "a", 0)
	b := NewHost(n, "b", 2048)
	n.Connect("a", "b", time.Millisecond)
	const count = 200
	for i := 0; i < count; i++ {
		p := mkPacket(1, 80)
		p.ID = uint16(i)
		a.Send("b", p)
	}
	if !n.Quiesce(10 * time.Second) {
		t.Fatal("quiesce")
	}
	recv := b.Received()
	if len(recv) != count {
		t.Fatalf("received %d", len(recv))
	}
	for i, p := range recv {
		if p.ID != uint16(i) {
			t.Fatalf("reordered at %d: got ID %d", i, p.ID)
		}
	}
}

// TestHostOnPacketCopyRetains proves the copy-out hook contract: every
// delivered packet reaches the callback as a detached heap copy that stays
// valid after the original pooled packet has been released and recycled,
// and the copies themselves owe the pool nothing.
func TestHostOnPacketCopyRetains(t *testing.T) {
	n, sw, a, b := topo(t)
	sw.Install(Rule{Priority: 10, Match: packet.MatchAll, OutPorts: []string{"b"}})
	pool := packet.NewPool(packet.PoolOptions{Accounting: true})

	var mu sync.Mutex
	var kept []*packet.Packet
	var liveSeen int
	b.OnPacket = func(p *packet.Packet) {
		mu.Lock()
		liveSeen++ // both hooks coexist: live borrow first, then the copy
		mu.Unlock()
	}
	b.OnPacketCopy = func(p *packet.Packet) {
		mu.Lock()
		kept = append(kept, p) // retaining is the whole point
		mu.Unlock()
	}

	const total = 50
	for i := 0; i < total; i++ {
		p := pool.Get()
		tpl := mkPacket(byte(i), 80)
		p.SrcIP, p.DstIP, p.Proto = tpl.SrcIP, tpl.DstIP, tpl.Proto
		p.SrcPort, p.DstPort = uint16(1000+i), 80
		p.Payload = append(p.Payload[:0], "copy-hook"...)
		if err := a.Send("s1", p); err != nil {
			t.Fatal(err)
		}
	}
	if !n.Quiesce(5 * time.Second) {
		t.Fatal("network did not quiesce")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(kept) != total || liveSeen != total {
		t.Fatalf("hooks saw %d copies and %d live packets, want %d each", len(kept), liveSeen, total)
	}
	ports := map[uint16]bool{}
	for _, p := range kept {
		if p.Pooled() {
			t.Fatal("copy hook delivered a pooled packet")
		}
		if string(p.Payload) != "copy-hook" {
			t.Fatalf("retained copy corrupted after pool recycling: %q", p.Payload)
		}
		ports[p.SrcPort] = true
	}
	if len(ports) != total {
		t.Fatalf("retained %d distinct packets, want %d", len(ports), total)
	}
	// Every pooled original was released by the host despite both hooks.
	if err := pool.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

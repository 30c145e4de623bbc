package sdn

import (
	"net/netip"
	"testing"
	"time"

	"openmb/internal/netsim"
	"openmb/internal/packet"
)

func mkPacket(dstPort uint16) *packet.Packet {
	return &packet.Packet{
		SrcIP:   netip.AddrFrom4([4]byte{10, 0, 0, 1}),
		DstIP:   netip.AddrFrom4([4]byte{1, 1, 1, 1}),
		Proto:   packet.ProtoTCP,
		SrcPort: 1000, DstPort: dstPort,
		Payload: []byte("x"),
	}
}

// twoSwitchTopo: src -- s1 -- s2 -- dst, with an alternate host alt on s2.
func twoSwitchTopo(t *testing.T) (*netsim.Network, *Controller, *netsim.Host, *netsim.Host, *netsim.Host) {
	t.Helper()
	n := netsim.New()
	s1 := netsim.NewSwitch(n, "s1")
	s2 := netsim.NewSwitch(n, "s2")
	src := netsim.NewHost(n, "src", 0)
	dst := netsim.NewHost(n, "dst", 0)
	alt := netsim.NewHost(n, "alt", 0)
	for _, pair := range [][2]string{{"src", "s1"}, {"s1", "s2"}, {"s2", "dst"}, {"s2", "alt"}} {
		if err := n.Connect(pair[0], pair[1], 0); err != nil {
			t.Fatal(err)
		}
	}
	c := NewController()
	c.AddSwitch(s1)
	c.AddSwitch(s2)
	t.Cleanup(n.Stop)
	return n, c, src, dst, alt
}

func TestRouteEndToEnd(t *testing.T) {
	n, c, _, dst, _ := twoSwitchTopo(t)
	_, err := c.Route(packet.MatchAll, 10, []Hop{{"s1", "s2"}, {"s2", "dst"}})
	if err != nil {
		t.Fatal(err)
	}
	n.Send("src", "s1", mkPacket(80))
	n.Quiesce(time.Second)
	if dst.Count() != 1 {
		t.Fatalf("dst received %d", dst.Count())
	}
}

func TestRouteUnknownSwitch(t *testing.T) {
	_, c, _, _, _ := twoSwitchTopo(t)
	if _, err := c.Route(packet.MatchAll, 10, []Hop{{"nope", "x"}}); err == nil {
		t.Fatal("route through unknown switch should fail")
	}
}

func TestUnroute(t *testing.T) {
	n, c, _, dst, _ := twoSwitchTopo(t)
	id, _ := c.Route(packet.MatchAll, 10, []Hop{{"s1", "s2"}, {"s2", "dst"}})
	if err := c.Unroute(id); err != nil {
		t.Fatal(err)
	}
	if err := c.Unroute(id); err == nil {
		t.Fatal("double unroute should fail")
	}
	n.Send("src", "s1", mkPacket(80))
	n.Quiesce(time.Second)
	if dst.Count() != 0 {
		t.Fatal("unrouted traffic still delivered")
	}
}

func TestRouteUpdateSteersTraffic(t *testing.T) {
	// The scaling scenario: re-route the HTTP substream to a new instance
	// by installing a higher-priority route.
	n, c, _, dst, alt := twoSwitchTopo(t)
	c.Route(packet.MatchAll, 10, []Hop{{"s1", "s2"}, {"s2", "dst"}})
	n.Send("src", "s1", mkPacket(80))
	n.Quiesce(time.Second)

	http, _ := packet.ParseFieldMatch("[tp_dst=80]")
	c.Route(http, 20, []Hop{{"s1", "s2"}, {"s2", "alt"}})
	n.Send("src", "s1", mkPacket(80))
	n.Send("src", "s1", mkPacket(443))
	n.Quiesce(time.Second)
	if alt.Count() != 1 {
		t.Fatalf("alt received %d, want 1", alt.Count())
	}
	if dst.Count() != 2 { // first HTTP + the 443 packet
		t.Fatalf("dst received %d, want 2", dst.Count())
	}
}

func TestUpdatesCounterAndDelay(t *testing.T) {
	_, c, _, _, _ := twoSwitchTopo(t)
	c.SetUpdateDelay(5 * time.Millisecond)
	start := time.Now()
	id, err := c.Route(packet.MatchAll, 10, []Hop{{"s1", "s2"}, {"s2", "dst"}})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("two hops with 5ms delay took %v", elapsed)
	}
	c.Unroute(id)
	if c.Updates() != 2 {
		t.Fatalf("updates: %d", c.Updates())
	}
	c.Barrier() // no-op, but part of the API contract
}

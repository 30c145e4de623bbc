// Failure recovery (§2 of the paper): a NAT's critical state — its
// address/port mappings — is mirrored at the controller via introspection
// events and moved to a replacement instance on failure, so in-progress
// flows keep their external bindings. Non-critical state (idle timers)
// restarts at defaults, exactly the "minimal live snapshot" option the
// paper advocates.
package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"openmb"
)

func main() {
	b, err := openmb.NewTestbed(openmb.ControllerOptions{QuietPeriod: 150 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	defer b.Close()

	extIP := netip.MustParseAddr("5.5.5.5")
	b.AddSwitch("s1")
	outside := b.AddHost("outside", 0)
	nat1 := openmb.NewNAT(extIP)
	nat2 := openmb.NewNAT(extIP)
	if _, err := b.AddMB("nat1", nat1, "outside"); err != nil {
		log.Fatal(err)
	}
	if _, err := b.AddMB("nat2", nat2, "outside"); err != nil {
		log.Fatal(err)
	}
	for _, pair := range [][2]string{{"s1", "nat1"}, {"s1", "nat2"}, {"nat1", "outside"}, {"nat2", "outside"}} {
		if err := b.Connect(pair[0], pair[1], 0); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := b.SDN.Route(openmb.MatchAll, 10, []openmb.Hop{{Switch: "s1", OutPort: "nat1"}}); err != nil {
		log.Fatal(err)
	}

	// The shadow tracks mapping creation through introspection events —
	// R6: the controller knows when critical state appears, and what it
	// is, without polling.
	shadow, err := openmb.NewMappingShadow(b.Ctrl, "nat1")
	if err != nil {
		log.Fatal(err)
	}

	for i := byte(1); i <= 10; i++ {
		_ = b.Net.Inject("s1", &openmb.Packet{
			SrcIP: netip.AddrFrom4([4]byte{10, 0, 0, i}), DstIP: netip.MustParseAddr("8.8.8.8"),
			Proto: 6, SrcPort: 1000 + uint16(i), DstPort: 443,
			Payload: []byte("request"),
		})
	}
	b.Quiesce(30 * time.Second)
	time.Sleep(50 * time.Millisecond) // events are asynchronous
	created, _ := shadow.Counts()
	fmt.Printf("nat1 holds %d mappings; shadow observed %d creations and mirrors %d mappings\n",
		nat1.MappingCount(), created, shadow.Len())

	// nat1 is failing: move the minimal critical snapshot to nat2 and
	// re-route. Mappings keep their external ports; timers restart.
	port1, _ := nat1.Lookup(netip.AddrFrom4([4]byte{10, 0, 0, 1}), 1001, 6)
	env := &openmb.Apps{MB: b.Ctrl}
	err = env.Failover("nat1", "nat2", func() error {
		_, err := b.SDN.Route(openmb.MatchAll, 20, []openmb.Hop{{Switch: "s1", OutPort: "nat2"}})
		return err
	})
	if err != nil {
		log.Fatal(err)
	}
	port2, ok := nat2.Lookup(netip.AddrFrom4([4]byte{10, 0, 0, 1}), 1001, 6)
	fmt.Printf("failover complete: nat2 holds %d mappings\n", nat2.MappingCount())
	fmt.Printf("external binding preserved: %v (port %d -> %d)\n", ok && port1 == port2, port1, port2)

	// The flow continues through the replacement with the same binding.
	before := outside.Count()
	_ = b.Net.Inject("s1", &openmb.Packet{
		SrcIP: netip.AddrFrom4([4]byte{10, 0, 0, 1}), DstIP: netip.MustParseAddr("8.8.8.8"),
		Proto: 6, SrcPort: 1001, DstPort: 443, Payload: []byte("more data"),
	})
	b.Quiesce(30 * time.Second)
	recv := outside.Received()
	last := recv[len(recv)-1]
	fmt.Printf("post-failover packet forwarded (%d -> %d deliveries) with source %s:%d; nat2 drops %+v\n",
		before, outside.Count(), last.SrcIP, last.SrcPort, nat2.Drops())
	b.Ctrl.WaitTxns(30 * time.Second)
}

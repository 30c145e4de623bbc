// Controller cluster: two controller nodes joined over SBI peer links, each
// one controller. A PRADS-like monitor registers at each node; the
// replicated directory says which node owns which monitor. Traffic builds
// per-flow state at the first monitor, and a MoveInternal coordinated by
// the second node pulls that monitor across the node boundary and moves
// its state — without losing a count.
package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"openmb"
)

func main() {
	// 1. Two nodes on an in-memory transport, each listening on its name
	//    (use openmb.TCPTransport{} and real addresses for multi-process;
	//    the openmb-controller daemon exposes the same thing via -node and
	//    -join).
	tr := openmb.NewMemTransport()
	nodes := map[string]*openmb.Node{}
	for _, name := range []string{"node-a", "node-b"} {
		n := openmb.NewNode(openmb.NodeOptions{
			Name:    name,
			Cluster: openmb.ClusterOptions{Controller: openmb.ControllerOptions{QuietPeriod: 200 * time.Millisecond}},
		})
		defer n.Close()
		if err := n.Serve(tr, name); err != nil {
			log.Fatal(err)
		}
		nodes[name] = n
	}
	a, b := nodes["node-a"], nodes["node-b"]
	// Join returns once node-a has answered a directory sync on the new
	// link, so both ends hold it.
	if err := b.Join("node-a"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s peers: %v\n", a.Name(), a.Peers())

	// 2. One monitor per node. Each registration commits the monitor's
	//    owner to the replicated directory, under quorum, before it is
	//    accepted.
	monitors := map[string]*openmb.Monitor{}
	runtimes := map[string]*openmb.Runtime{}
	for name, at := range map[string]*openmb.Node{"prads1": a, "prads2": b} {
		m := openmb.NewMonitor()
		rt := openmb.NewRuntime(name, m, openmb.RuntimeOptions{})
		defer rt.Close()
		if err := rt.Connect(tr, at.Name()); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		if err := at.WaitForMB(name, 5*time.Second); err != nil {
			log.Fatal(err)
		}
		monitors[name], runtimes[name] = m, rt
	}
	for _, name := range []string{"prads1", "prads2"} {
		owner, _ := b.Lookup(name)
		fmt.Printf("%s is owned by %s\n", name, owner)
	}

	// 3. Traffic builds per-flow reporting state at prads1.
	for i := 0; i < 40; i++ {
		runtimes["prads1"].HandlePacket(&openmb.Packet{
			SrcIP: netip.AddrFrom4([4]byte{10, 0, byte(i / 200), byte(i % 200)}),
			DstIP: netip.MustParseAddr("52.20.0.1"),
			Proto: 6, SrcPort: uint16(10000 + i), DstPort: 80,
			Payload: []byte("GET / HTTP/1.1\r\n"),
		})
	}
	runtimes["prads1"].Drain(10 * time.Second)

	// 4. A cross-node move coordinated by node-b: prads1 is pulled from
	//    node-a (its routing state travels on the peer link, the monitor
	//    redials node-b), then the move runs on node-b's controller with
	//    the single-controller API.
	if err := b.MoveInternal("prads1", "prads2", openmb.MatchAll); err != nil {
		log.Fatal(err)
	}
	b.WaitTxns(10 * time.Second)
	owner, _ := a.Lookup("prads1")
	fmt.Printf("after the move node-a's directory says prads1 is owned by %s\n", owner)

	// 5. Conservation across the pull and the move: every packet count
	//    survives, exactly once, at prads2.
	total := 0
	for _, m := range monitors {
		total += int(m.TotalPerflowPackets())
	}
	fmt.Printf("after cross-node move: prads2 holds %d flows; %d packet counts across the pool (sent 40)\n",
		monitors["prads2"].FlowCount(), total)
}

package openmb_test

import (
	"net/netip"
	"testing"
	"time"

	"openmb"
)

// TestPublicAPIQuickstart exercises the README's quickstart flow through the
// public facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	ctrl := openmb.NewController(openmb.ControllerOptions{QuietPeriod: 60 * time.Millisecond})
	tr := openmb.NewMemTransport()
	if err := ctrl.Serve(tr, "controller"); err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	prads1 := openmb.NewMonitor()
	prads2 := openmb.NewMonitor()
	rt1 := openmb.NewRuntime("prads1", prads1, openmb.RuntimeOptions{})
	rt2 := openmb.NewRuntime("prads2", prads2, openmb.RuntimeOptions{})
	defer rt1.Close()
	defer rt2.Close()
	for name, rt := range map[string]*openmb.Runtime{"prads1": rt1, "prads2": rt2} {
		if err := rt.Connect(tr, "controller"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := ctrl.WaitForMB(name, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < 20; i++ {
		rt1.HandlePacket(&openmb.Packet{
			SrcIP: netip.AddrFrom4([4]byte{10, 0, byte(i / 10), byte(i)}),
			DstIP: netip.MustParseAddr("52.20.0.1"),
			Proto: 6, SrcPort: uint16(10000 + i), DstPort: 80,
			Payload: []byte("GET / HTTP/1.1\r\n"),
		})
	}
	if !rt1.Drain(5 * time.Second) {
		t.Fatal("drain")
	}

	stats, err := ctrl.Stats("prads1", openmb.MatchAll)
	if err != nil || stats.ReportPerflowChunks != 20 {
		t.Fatalf("stats: %+v err=%v", stats, err)
	}

	match, err := openmb.ParseFieldMatch("[nw_src=10.0.0.0/24]")
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.MoveInternal("prads1", "prads2", match); err != nil {
		t.Fatal(err)
	}
	if prads2.FlowCount() != 10 {
		t.Fatalf("moved flows: %d", prads2.FlowCount())
	}
	if !ctrl.WaitTxns(10 * time.Second) {
		t.Fatal("transactions did not complete")
	}
	total := prads1.TotalPerflowPackets() + prads2.TotalPerflowPackets()
	if total != 20 {
		t.Fatalf("conservation: %d", total)
	}
}

// TestPublicAPITestbed exercises the Testbed facade used by the examples.
func TestPublicAPITestbed(t *testing.T) {
	b, err := openmb.NewTestbed(openmb.ControllerOptions{QuietPeriod: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.AddSwitch("s1")
	mon := openmb.NewMonitor()
	if _, err := b.AddMB("m1", mon, ""); err != nil {
		t.Fatal(err)
	}
	if err := b.Connect("s1", "m1", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.SDN.Route(openmb.MatchAll, 10, []openmb.Hop{{Switch: "s1", OutPort: "m1"}}); err != nil {
		t.Fatal(err)
	}
	tr := openmb.RedundantTrace(openmb.RedundantTraceConfig{Seed: 1, Flows: 10})
	if err := b.InjectTrace("s1", tr.Packets, 0); err != nil {
		t.Fatal(err)
	}
	if !b.Quiesce(10 * time.Second) {
		t.Fatal("quiesce")
	}
	if mon.FlowCount() != 10 {
		t.Fatalf("flows: %d", mon.FlowCount())
	}
}

// TestTraceGenerators sanity-checks the public trace constructor (the
// cloud and data-center generators are internal/trace's).
func TestTraceGenerators(t *testing.T) {
	if s := openmb.RedundantTrace(openmb.RedundantTraceConfig{Seed: 1, Flows: 4}).Stats(); s.Flows != 4 {
		t.Fatalf("redundant: %+v", s)
	}
}

package eval

import (
	"strings"
	"testing"

	"openmb/internal/obs"
	"openmb/internal/packet"
)

// TestChainTracerHopSequence drives the monitor→NAT→IPS chain with the flow
// tracer armed on every hop and checks the per-hop record stream: every
// injected packet produces an ingress, dispatch, verdict (emits=1), and
// egress record at every middlebox, and a destination-based predicate keeps
// matching across the NAT's source rewrite.
func TestChainTracerHopSequence(t *testing.T) {
	const packets = 4
	rig := NewChainRig(1)
	defer rig.Close()
	m, err := packet.ParseFieldMatch("nw_dst=8.8.8.8,tp_dst=8080")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rig.Runtime(i).ArmTrace(obs.TraceSpec{Match: m})
	}
	if err := rig.Inject(packets); err != nil {
		t.Fatal(err)
	}
	if got := rig.Delivered(); got != packets {
		t.Fatalf("delivered %d, want %d", got, packets)
	}
	for i, name := range []string{"chain-mon", "chain-nat", "chain-ips"} {
		recs := rig.Runtime(i).TraceRecords()
		perHop := map[obs.Hop]int{}
		for _, r := range recs {
			if r.MB != name {
				t.Fatalf("%s: record attributed to %q", name, r.MB)
			}
			perHop[r.Hop]++
			if r.Hop == obs.HopVerdict && r.Note != "emits=1" {
				t.Fatalf("%s: verdict note %q, want emits=1", name, r.Note)
			}
		}
		for _, h := range []obs.Hop{obs.HopIngress, obs.HopDispatch, obs.HopVerdict, obs.HopEgress} {
			if perHop[h] != packets {
				t.Fatalf("%s: %d %s records, want %d (all: %v)", name, perHop[h], h, packets, perHop)
			}
		}
		// A packet must hit ingress before anything else records it.
		if len(recs) == 0 || recs[0].Hop != obs.HopIngress {
			t.Fatalf("%s: first record is %v, want ingress", name, recs[0].Hop)
		}
	}
	// The NAT rewrites the source to its external IP; egress records are
	// captured post-rewrite, so the dst-based predicate is what kept the
	// flow visible.
	for _, r := range rig.Runtime(1).TraceRecords() {
		if r.Hop == obs.HopEgress && r.Key.SrcIP.String() != "192.0.2.1" {
			t.Fatalf("NAT egress record not post-rewrite: %v", r.Key)
		}
	}
}

// TestChainTracerNonMatching pins the armed-but-filtered behaviour: a
// predicate naming a flow that never appears captures nothing, and the chain
// delivers identically — arming a narrow trace is free for everyone else.
func TestChainTracerNonMatching(t *testing.T) {
	const packets = 8
	rig := NewChainRig(2)
	defer rig.Close()
	m, err := packet.ParseFieldMatch("nw_src=172.16.0.1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rig.Runtime(i).ArmTrace(obs.TraceSpec{Match: m, Budget: 16})
	}
	if err := rig.Inject(packets); err != nil {
		t.Fatal(err)
	}
	if got := rig.Delivered(); got != packets {
		t.Fatalf("delivered %d, want %d", got, packets)
	}
	for i := 0; i < 3; i++ {
		if recs := rig.Runtime(i).TraceRecords(); len(recs) != 0 {
			t.Fatalf("hop %d captured %d records for a flow that never appeared: %v", i, len(recs), recs)
		}
	}
}

// TestChainTracerBudget checks the per-hop record cap: a budget smaller than
// the traffic stops capture without disturbing delivery.
func TestChainTracerBudget(t *testing.T) {
	const packets = 16
	rig := NewChainRig(1)
	defer rig.Close()
	rig.Runtime(0).ArmTrace(obs.TraceSpec{Match: packet.MatchAll, Budget: 5})
	if err := rig.Inject(packets); err != nil {
		t.Fatal(err)
	}
	if got := len(rig.Runtime(0).TraceRecords()); got != 5 {
		t.Fatalf("budget 5, captured %d", got)
	}
	if got := rig.Delivered(); got != packets {
		t.Fatalf("delivered %d, want %d", got, packets)
	}
}

// TestObsReportShape runs the observability experiment end to end and pins
// the table shape: one row per op window, move count equal to the moves run,
// and the scrape/tracer notes present.
func TestObsReportShape(t *testing.T) {
	tbl := mustRun(t, func() (*Table, error) { return ObsReport(ObsConfig{Moves: 2, Chunks: 50}) })
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tbl.Rows))
	}
	if cell(t, tbl, 0, 0) != "move" || atoi(t, cell(t, tbl, 0, 1)) != 2 {
		t.Fatalf("move row = %v", tbl.Rows[0])
	}
	if atoi(t, cell(t, tbl, 1, 1)) < 2 {
		t.Fatalf("get row = %v", tbl.Rows[1])
	}
	// One put per frame: 2 moves × ⌈50 chunks / 32 per frame⌉.
	if atoi(t, cell(t, tbl, 2, 1)) < 4 {
		t.Fatalf("put-ack row = %v", tbl.Rows[2])
	}
	var sawTracer, sawScrape bool
	for _, n := range tbl.Notes {
		if strings.Contains(n, "flow tracer armed") {
			sawTracer = true
		}
		if strings.Contains(n, "Prometheus text format") {
			sawScrape = true
		}
	}
	if !sawTracer || !sawScrape {
		t.Fatalf("missing notes: %v", tbl.Notes)
	}
}

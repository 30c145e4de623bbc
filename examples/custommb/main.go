// A middlebox of your own (§4 of the paper): whatever implements the
// southbound API gets moves, clones and merges from the controller. This
// flow counter is written against package openmb alone — per-flow packet
// counts in an embedded openmb.Table, shared counters behind
// GetShared/PutShared, and a configuration tree. The controller clones its
// configuration and shared supporting state onto a second instance, moves
// every flow's count there, and merges the shared reporting state back, and
// every count is conserved.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"net/netip"
	"time"

	"openmb"
)

// counter counts packets per flow (per-flow supporting state, in its
// table), keeps the largest payload seen (shared supporting state, merged
// by max) and counts all packets (shared reporting state, merged by sum).
type counter struct {
	openmb.Table[uint64] // per-flow counts; its lock is the counter's lock
	largest              uint64
	packets              uint64
	config               *openmb.ConfigTree
}

func newCounter() *counter {
	c := &counter{config: openmb.NewConfigTree()}
	c.Init("counter", openmb.Supporting, openmb.Canonical, countCodec{})
	return c
}

// countCodec is a per-flow count's wire form: 8 bytes, big-endian.
type countCodec struct{}

var _ openmb.TableCodec[uint64] = countCodec{}

func (countCodec) Append(b []byte, n uint64) []byte { return binary.BigEndian.AppendUint64(b, n) }

func (countCodec) Decode(_ openmb.FlowID, b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("counter: %d-byte count", len(b))
	}
	return binary.BigEndian.Uint64(b), nil
}

// Put adds an incoming count to the one already there.
func (countCodec) Put(_ openmb.FlowID, in, cur uint64, _ bool) (uint64, error) { return cur + in, nil }

func (countCodec) Drop(openmb.FlowID, uint64) {}

func (c *counter) Kind() string { return "counter" }

// ProcessBurst counts each packet, reporting every update through the
// packet's Context (the table's Touch and Insert report per-flow ones), and
// forwards it. A replayed packet updates only the state it was replayed for.
func (c *counter) ProcessBurst(ctxs []openmb.Context, pkts []*openmb.Packet) {
	c.Lock()
	defer c.Unlock()
	for i, p := range pkts {
		ctx := &ctxs[i]
		if !ctx.SkipPerflow() {
			id, _ := p.FlowID().Canonical()
			n, _ := c.Touch(ctx, id)
			c.Insert(ctx, id, n+1)
		}
		if !ctx.SkipShared() {
			c.largest = max(c.largest, uint64(len(p.Payload)))
			c.packets++
			ctx.TouchShared(openmb.Supporting)
			ctx.TouchShared(openmb.Reporting)
		}
		ctx.Emit(p)
	}
}

// GetShared exports one shared counter, marking it under the same lock as
// the snapshot, so an update after the snapshot raises a reprocess event.
func (c *counter) GetShared(class openmb.Class, mark func()) ([]byte, error) {
	c.Lock()
	defer c.Unlock()
	mark()
	switch class {
	case openmb.Supporting:
		return binary.BigEndian.AppendUint64(nil, c.largest), nil
	case openmb.Reporting:
		return binary.BigEndian.AppendUint64(nil, c.packets), nil
	}
	return nil, openmb.ErrNoSharedState
}

// PutShared merges an incoming shared counter into this one.
func (c *counter) PutShared(class openmb.Class, blob []byte) error {
	if len(blob) != 8 {
		return fmt.Errorf("counter: %d-byte shared counter", len(blob))
	}
	v := binary.BigEndian.Uint64(blob)
	c.Lock()
	defer c.Unlock()
	switch class {
	case openmb.Supporting:
		c.largest = max(c.largest, v)
	case openmb.Reporting:
		c.packets += v
	default:
		return openmb.ErrNoSharedState
	}
	return nil
}

func (c *counter) Stats(m openmb.FieldMatch) openmb.StatsReply {
	s := c.Table.Stats(m)
	s.SupportSharedBytes, s.ReportSharedBytes = 8, 8
	return s
}

func (c *counter) Config() *openmb.ConfigTree { return c.config }

// totals returns the flows the counter holds, the sum of their counts and
// the packets it reports.
func (c *counter) totals() (flows int, counts, reported uint64) {
	c.Lock()
	defer c.Unlock()
	for _, n := range c.All() {
		counts += n
	}
	return c.Len(), counts, c.packets
}

func main() {
	ctrl := openmb.NewController(openmb.ControllerOptions{QuietPeriod: 100 * time.Millisecond})
	tr := openmb.NewMemTransport()
	if err := ctrl.Serve(tr, "controller"); err != nil {
		log.Fatal(err)
	}
	defer ctrl.Close()
	ctr1, ctr2 := newCounter(), newCounter()
	runtimes := map[string]*openmb.Runtime{}
	for name, c := range map[string]*counter{"ctr1": ctr1, "ctr2": ctr2} {
		rt := openmb.NewRuntime(name, c, openmb.RuntimeOptions{})
		defer rt.Close()
		if err := rt.Connect(tr, "controller"); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		if err := ctrl.WaitForMB(name, 5*time.Second); err != nil {
			log.Fatal(err)
		}
		runtimes[name] = rt
	}
	send := func(name string, flows, each int) {
		for range each {
			for i := range flows {
				runtimes[name].HandlePacket(&openmb.Packet{
					SrcIP: netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}), DstIP: netip.MustParseAddr("52.20.0.1"),
					Proto: 6, SrcPort: uint16(10000 + i), DstPort: 80, Payload: []byte("GET / HTTP/1.1\r\n"),
				})
			}
		}
		runtimes[name].Drain(5 * time.Second)
	}

	// 1. The northbound config calls read and write the logic's tree.
	if err := ctrl.WriteConfig("ctr1", "counter/label", []string{"edge"}); err != nil {
		log.Fatal(err)
	}
	if err := ctrl.CloneConfig("ctr1", "ctr2"); err != nil {
		log.Fatal(err)
	}
	if err := ctrl.DelConfig("ctr1", "counter/label"); err != nil {
		log.Fatal(err)
	}
	cloned, err := ctrl.ReadConfig("ctr2", "counter/label")
	if err != nil {
		log.Fatal(err)
	}
	_, err = ctrl.ReadConfig("ctr1", "counter/label")
	fmt.Printf("config: ctr2 cloned %v; ctr1's is deleted (%v)\n", cloned[0].Values, err)

	// 2. Traffic at ctr1: 10 flows, 6 packets each.
	send("ctr1", 10, 6)
	stats, err := ctrl.Stats("ctr1", openmb.MatchAll)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ctr1 state: %d per-flow chunks (%d bytes)\n", stats.SupportPerflowChunks, stats.SupportPerflowBytes)

	// 3. Scale out: clone the shared supporting state, then move every
	//    flow's count; the source's copy goes after the quiet period.
	if err := ctrl.CloneSupport("ctr1", "ctr2"); err != nil {
		log.Fatal(err)
	}
	if err := ctrl.MoveInternal("ctr1", "ctr2", openmb.MatchAll); err != nil {
		log.Fatal(err)
	}
	ctrl.WaitTxns(10 * time.Second)
	f1, _, _ := ctr1.totals()
	f2, _, _ := ctr2.totals()
	ctr2.Lock()
	largest := ctr2.largest
	ctr2.Unlock()
	fmt.Printf("after clone and move: ctr1 holds %d flows, ctr2 holds %d and a cloned largest payload of %d B\n", f1, f2, largest)

	// 4. Traffic follows to ctr2: 4 more packets per flow.
	send("ctr2", 10, 4)

	// 5. Scale in: merge ctr1's shared state into ctr2, which sums the
	//    reported packets.
	if err := ctrl.MergeInternal("ctr1", "ctr2"); err != nil {
		log.Fatal(err)
	}
	ctrl.WaitTxns(10 * time.Second)
	f1, _, _ = ctr1.totals()
	f2, counts, reported := ctr2.totals()
	fmt.Printf("conservation: ctr1 %d flows, ctr2 %d flows; %d per-flow counts and %d reported packets (sent 100)\n",
		f1, f2, counts, reported)
}

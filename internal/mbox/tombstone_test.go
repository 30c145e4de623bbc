package mbox_test

import (
	"net/netip"
	"testing"

	"openmb/internal/mbox"
	"openmb/internal/mbox/ips"
	"openmb/internal/mbox/lb"
	"openmb/internal/mbox/mbtest"
	"openmb/internal/mbox/monitor"
	"openmb/internal/mbox/nat"
	"openmb/internal/packet"
	"openmb/internal/state"
)

// nfCell is one middlebox with per-flow state: a constructor, the class its
// per-flow state is in, and a packet that creates one flow.
type nfCell struct {
	name  string
	new   func() mbox.Logic
	class state.Class
	pkt   func() *packet.Packet
}

func tcp(src string, sport uint16, dst string, dport uint16, flags uint8) *packet.Packet {
	return &packet.Packet{
		SrcIP: netip.MustParseAddr(src), DstIP: netip.MustParseAddr(dst),
		Proto: packet.ProtoTCP, SrcPort: sport, DstPort: dport, Flags: flags,
		Payload: []byte("GET / HTTP/1.1\r\n"), Timestamp: 1,
	}
}

var (
	lbVIP = netip.MustParseAddr("10.9.9.9")
	natIP = netip.MustParseAddr("203.0.113.1")
)

var nfCells = []nfCell{
	{"monitor", func() mbox.Logic { return monitor.New() }, state.Reporting,
		func() *packet.Packet { return tcp("10.0.0.1", 1000, "8.8.8.8", 80, packet.FlagACK) }},
	{"ips", func() mbox.Logic { return ips.New() }, state.Supporting,
		func() *packet.Packet { return tcp("10.0.0.1", 1000, "8.8.8.8", 80, packet.FlagSYN) }},
	{"nat", func() mbox.Logic { return nat.New(natIP) }, state.Supporting,
		func() *packet.Packet { return tcp("10.0.0.1", 1000, "8.8.8.8", 443, packet.FlagACK) }},
	{"lb", func() mbox.Logic {
		return lb.New(lbVIP, 80, []lb.Backend{{IP: netip.MustParseAddr("10.9.0.1"), Port: 8080}})
	}, state.Supporting,
		func() *packet.Packet { return tcp("192.0.2.7", 1000, lbVIP.String(), 80, packet.FlagACK) }},
	{"counter", func() mbox.Logic { return mbtest.NewCounterLogic(0) }, state.Supporting,
		func() *packet.Packet { return tcp("10.0.0.1", 1000, "8.8.8.8", 80, packet.FlagACK) }},
}

// perflowChunks counts a middlebox's per-flow entries, of either class.
func perflowChunks(l mbox.Logic) int {
	s := l.Stats(packet.MatchAll)
	return s.SupportPerflowChunks + s.ReportPerflowChunks
}

// TestGetTombstonesKeyDeletedMidGet: a key that leaves the table between the
// get's key collection and its chunk's build is still marked and still
// exported, as a tombstone; the get carries on, and the put of that chunk
// installs nothing — no phantom entry at the destination.
func TestGetTombstonesKeyDeletedMidGet(t *testing.T) {
	for _, c := range nfCells {
		t.Run(c.name, func(t *testing.T) {
			src, dst := c.new(), c.new()
			mbtest.ProcessOne(src, mbox.NewBenchContext(), c.pkt())
			if n := perflowChunks(src); n != 1 {
				t.Fatalf("source holds %d per-flow entries, want 1", n)
			}
			var chunks []state.Chunk
			marked := 0
			// The flow ends (a delete, an expiry, a termination) after the
			// get collected its key.
			var delErr error
			end := func() { _, delErr = mbox.DelPerflow(src, c.class, packet.MatchAll) }
			err := mbox.ExportPerflowForTest(src, c.class, packet.MatchAll, end, func(packet.FlowID) { marked++ }, func(id packet.FlowID, blob []byte) error {
				if delErr != nil {
					return delErr
				}
				chunks = append(chunks, state.Chunk{Key: id.Key(), Blob: blob})
				return nil
			})
			if err != nil {
				t.Fatalf("get failed for a key deleted mid-get: %v", err)
			}
			if marked != 1 || len(chunks) != 1 {
				t.Fatalf("marked %d keys, exported %d chunks; want 1 and 1", marked, len(chunks))
			}
			for _, ch := range chunks {
				if err := mbox.PutPerflow(dst, c.class, ch); err != nil {
					t.Fatalf("put of the deleted key's chunk: %v", err)
				}
			}
			if n := perflowChunks(dst); n != 0 {
				t.Fatalf("destination holds %d per-flow entries for a key deleted before its chunk was built", n)
			}
			switch d := dst.(type) {
			case *monitor.Monitor:
				if s := d.Snapshot(); s.Shared.Flows != 0 {
					t.Fatalf("destination counted %d flows", s.Shared.Flows)
				}
			case *ips.IPS:
				if lines := d.FlushAll(nil); len(lines) != 0 {
					t.Fatalf("destination logs a phantom connection: %q", lines)
				}
			}
		})
	}
}

package mbox_test

import (
	"bytes"
	"fmt"
	"math/bits"
	"net/netip"
	"slices"
	"testing"

	"openmb/internal/mbox"
	"openmb/internal/mbox/lb"
	"openmb/internal/mbox/mbtest"
	"openmb/internal/mbox/monitor"
	"openmb/internal/mbox/nat"
	"openmb/internal/packet"
	"openmb/internal/state"
	"openmb/internal/trace"
)

// tableKeys returns the table's keys, sorted.
func tableKeys[V any](tbl *mbox.Table[V]) []packet.FlowID {
	tbl.Lock()
	defer tbl.Unlock()
	var ids []packet.FlowID
	for id := range tbl.All() {
		ids = append(ids, id)
	}
	packet.SortIDs(ids)
	return ids
}

// getChunks runs a get and returns the chunks it exported, in export order.
func getChunks(t *testing.T, l mbox.Logic, class state.Class, m packet.FieldMatch) []state.Chunk {
	t.Helper()
	var got []state.Chunk
	err := l.GetPerflow(class, m, func(key packet.FlowKey, build func(func()) ([]byte, error)) error {
		blob, err := build(func() {})
		got = append(got, state.Chunk{Key: key, Blob: blob})
		return err
	})
	if err != nil {
		t.Fatalf("%s: %v", m, err)
	}
	return got
}

// chunkIDs returns the chunks' keys as IDs, sorted.
func chunkIDs(chunks []state.Chunk) []packet.FlowID {
	ids := make([]packet.FlowID, len(chunks))
	for i, c := range chunks {
		ids[i], _ = c.Key.ID()
	}
	packet.SortIDs(ids)
	return ids
}

// matchEither returns the keys of all that m matches in either direction:
// the brute-force answer every prefix match must give.
func matchEither(all []packet.FlowID, m packet.FieldMatch) []packet.FlowID {
	var want []packet.FlowID
	for _, id := range all {
		if m.ForID().MatchEither(id) {
			want = append(want, id)
		}
	}
	return want
}

// checkPrefixMatches: under each match, a get exports and Stats counts
// exactly the table's keys a brute-force MatchEither finds.
func checkPrefixMatches[V any](t *testing.T, when string, l mbox.Logic, tbl *mbox.Table[V], class state.Class, matches []packet.FieldMatch) {
	t.Helper()
	all := tableKeys(tbl)
	for _, m := range matches {
		want := matchEither(all, m)
		if got := chunkIDs(getChunks(t, l, class, m)); !slices.Equal(got, want) {
			t.Fatalf("%s: get %s exported %v, MatchEither finds %v", when, m, got, want)
		}
		if s := l.Stats(m); s.SupportPerflowChunks+s.ReportPerflowChunks != len(want) {
			t.Fatalf("%s: stats %s count %+v, MatchEither finds %d", when, m, s, len(want))
		}
	}
}

// parseSomeMatches parses specs, each of which must match some but not all
// of the table's keys in either direction.
func parseSomeMatches[V any](t *testing.T, tbl *mbox.Table[V], specs []string) []packet.FieldMatch {
	t.Helper()
	var matches []packet.FieldMatch
	for _, spec := range specs {
		m, err := packet.ParseFieldMatch(spec)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(matchEither(tableKeys(tbl), m)); n == 0 || n == tbl.Len() {
			t.Fatalf("%s: matches %d of %d flows, want some but not all", spec, n, tbl.Len())
		}
		matches = append(matches, m)
	}
	return matches
}

// checkMaintained drives a table through a delete, a put and a new flow,
// and after each checks that prefix gets, Stats and the delete itself cover
// exactly the MatchEither set of the table's keys.
func checkMaintained[V any](t *testing.T, l mbox.Logic, tbl *mbox.Table[V], class state.Class, specs []string, del string, newFlow *packet.Packet) {
	matches := parseSomeMatches(t, tbl, specs)
	all := tableKeys(tbl)
	dm, _ := packet.ParseFieldMatch(del)
	want := matchEither(all, dm)
	moved := getChunks(t, l, class, dm)
	if n, err := l.DelPerflow(class, dm); err != nil || n != len(want) {
		t.Fatalf("del %s: %d, %v; MatchEither finds %d", del, n, err, len(want))
	}
	if left := tableKeys(tbl); len(left) != len(all)-len(want) || len(matchEither(left, dm)) != 0 {
		t.Fatalf("del %s left %d of %d keys, %d of them matching", del, len(left), len(all), len(matchEither(left, dm)))
	}
	checkPrefixMatches(t, "after a delete", l, tbl, class, matches)

	for _, c := range moved {
		if err := l.PutPerflow(class, c); err != nil {
			t.Fatal(err)
		}
	}
	if got := tableKeys(tbl); !slices.Equal(got, all) {
		t.Fatalf("after the put back: %d keys, want %d", len(got), len(all))
	}
	checkPrefixMatches(t, "after a put", l, tbl, class, matches)

	mbtest.ProcessOne(l, mbox.NewBenchContext(), newFlow)
	if tbl.Len() != len(all)+1 {
		t.Fatalf("a new flow left %d keys, want %d", tbl.Len(), len(all)+1)
	}
	checkPrefixMatches(t, "after a new flow", l, tbl, class, matches)
}

// loadCloud runs a 60-flow cloud trace through l.
func loadCloud(l mbox.Logic) {
	tr := trace.Cloud(trace.CloudConfig{Seed: 70, Flows: 60})
	rt := mbox.New("a", l, mbox.Options{})
	defer rt.Close()
	for _, p := range tr.Packets {
		rt.HandlePacket(p)
	}
	rt.Drain(10e9)
}

// The prefix matches the two tests below put to the canonical (monitor)
// and the source-endpoint (NAT) table.
var (
	canonicalMatches = []string{
		"[nw_src=10.1.0.0/17]",
		"[nw_src=10.1.0.0/17,nw_proto=tcp]",
		"[nw_dst=10.1.0.0/17]",  // the client end, reversed
		"[nw_src=52.20.0.0/17]", // the server end, reversed
		"[nw_dst=52.20.0.0/17]",
	}
	srcEndpointMatches = []string{
		"[nw_src=10.1.0.0/17]",
		"[nw_src=10.1.128.0/17]",
		"[nw_src=10.1.0.0/17,nw_proto=tcp]",
	}
)

// TestIndexedGetEquivalence: the flat table is the only index a prefix get
// has, and every match it answers is one scan of its keys filtered by
// MatchEither, on the canonical (monitor) and the source-endpoint (NAT)
// table alike.
func TestIndexedGetEquivalence(t *testing.T) {
	t.Run("canonical", func(t *testing.T) {
		m := monitor.New()
		loadCloud(m)
		checkPrefixMatches(t, "loaded", m, &m.Table, state.Reporting, parseSomeMatches(t, &m.Table, canonicalMatches))
	})
	t.Run("source-endpoint", func(t *testing.T) {
		n := nat.New(natIP)
		loadCloud(n)
		checkPrefixMatches(t, "loaded", n, &n.Table, state.Supporting, parseSomeMatches(t, &n.Table, srcEndpointMatches))
	})
}

// TestIndexMaintainedAcrossPutDel: prefix gets, Stats and deletes keep
// matching the MatchEither scan as keys leave and enter the table — a
// delete, a put, a packet that creates a flow.
func TestIndexMaintainedAcrossPutDel(t *testing.T) {
	newFlow := tcp("10.1.0.200", 4321, "52.20.0.9", 443, packet.FlagACK)
	t.Run("canonical", func(t *testing.T) {
		m := monitor.New()
		loadCloud(m)
		checkMaintained(t, m, &m.Table, state.Reporting, canonicalMatches, "[nw_dst=10.1.0.0/17]", newFlow)
	})
	t.Run("source-endpoint", func(t *testing.T) {
		n := nat.New(natIP)
		loadCloud(n)
		checkMaintained(t, n, &n.Table, state.Supporting, srcEndpointMatches, "[nw_src=10.1.0.0/17]", newFlow)
	})
}

// TestTableKeyingRuleRefusesEverywhere: a table not keyed canonically
// refuses a match that constrains the destination, and Stats and DelPerflow
// refuse it exactly as the get does: they count and delete nothing, where
// matching the reversed key would hit every flow whose source lies in the
// destination prefix.
func TestTableKeyingRuleRefusesEverywhere(t *testing.T) {
	for _, c := range []struct {
		name   string
		new    func() mbox.Logic
		client string // the flows' source /24, the match's destination
		dst    string
	}{
		{"nat", func() mbox.Logic { return nat.New(natIP) }, "10.0.0", "1.1.1.1"},
		{"lb", func() mbox.Logic {
			return lb.New(lbVIP, 80, []lb.Backend{{IP: netip.MustParseAddr("10.9.0.1"), Port: 8080}})
		}, "192.0.2", lbVIP.String()},
		{"counter", func() mbox.Logic { return mbtest.NewCounterLogic(0) }, "10.0.0", "1.1.1.1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			l := c.new()
			for i := 1; i <= 3; i++ {
				mbtest.ProcessOne(l, mbox.NewBenchContext(), tcp(fmt.Sprintf("%s.%d", c.client, i), 1000+uint16(i), c.dst, 80, packet.FlagACK))
			}
			if n := perflowChunks(l); n != 3 {
				t.Fatalf("%d per-flow entries, want 3", n)
			}
			m, _ := packet.ParseFieldMatch("[nw_dst=" + c.client + ".0/24]")
			err := l.GetPerflow(state.Supporting, m, func(packet.FlowKey, func(func()) ([]byte, error)) error { return nil })
			if err == nil {
				t.Fatalf("get %s: no error", m)
			}
			if s := l.Stats(m); s.SupportPerflowChunks != 0 || s.SupportPerflowBytes != 0 {
				t.Errorf("stats %s: %d chunks, %d bytes; want none", m, s.SupportPerflowChunks, s.SupportPerflowBytes)
			}
			if n, err := l.DelPerflow(state.Supporting, m); err == nil || n != 0 {
				t.Errorf("del %s: %d deleted, error %v; want the get's refusal", m, n, err)
			}
			if n := perflowChunks(l); n != 3 {
				t.Errorf("%d per-flow entries after the refused delete, want 3", n)
			}
		})
	}
}

// exportAll returns the blobs of every chunk a get over the whole table
// exports.
func exportAll(l mbox.Logic, class state.Class) ([][]byte, error) {
	var blobs [][]byte
	err := l.GetPerflow(class, packet.MatchAll, func(_ packet.FlowKey, build func(func()) ([]byte, error)) error {
		blob, err := build(func() {})
		blobs = append(blobs, blob)
		return err
	})
	return blobs, err
}

// FuzzTableCodec drives every middlebox's per-flow codec through its table:
// a put of any blob either fails or installs a value (Decode never panics);
// that value exports as a non-empty blob (Append is never empty, since a
// zero-length blob is the tombstone); and the exported blob survives a
// second put and get byte for byte (Append(Decode(Append(v))) == Append(v)).
func FuzzTableCodec(f *testing.F) {
	// Seed with each middlebox's real export of one flow, and a little junk.
	for i, c := range nfCells {
		l := c.new()
		mbtest.ProcessOne(l, mbox.NewBenchContext(), c.pkt())
		blobs, err := exportAll(l, c.class)
		if err != nil || len(blobs) != 1 || len(blobs[0]) == 0 {
			f.Fatalf("%s: one flow exports %q (%v)", c.name, blobs, err)
		}
		for _, blob := range blobs {
			f.Add(uint8(i), blob)
		}
		f.Add(uint8(i), []byte{0})
		f.Add(uint8(i), []byte(`{"key":"x"}`))
	}
	f.Fuzz(func(t *testing.T, which uint8, blob []byte) {
		c := nfCells[int(which)%len(nfCells)]
		// The chunk key the cell's own flow exports under.
		id, _ := c.pkt().FlowID().Canonical()
		if c.name == "nat" || c.name == "lb" {
			id = c.pkt().FlowID().SrcEndpoint()
		}
		key := id.Key()
		a := c.new()
		if err := a.PutPerflow(c.class, state.Chunk{Key: key, Blob: blob}); err != nil || len(blob) == 0 {
			return
		}
		first, err := exportAll(a, c.class)
		if err != nil || len(first) != 1 || len(first[0]) == 0 {
			t.Fatalf("%s: a put of %q exports %q (%v)", c.name, blob, first, err)
		}
		b := c.new()
		if err := b.PutPerflow(c.class, state.Chunk{Key: key, Blob: first[0]}); err != nil {
			t.Fatalf("%s: the table's own export %q does not put back: %v", c.name, first[0], err)
		}
		if second, err := exportAll(b, c.class); err != nil || len(second) != 1 || !bytes.Equal(second[0], first[0]) {
			t.Fatalf("%s: export %q, after a round trip %q (%v)", c.name, first[0], second, err)
		}
	})
}

// BenchmarkTableTouch is one per-flow lookup through Table.Touch, visiting
// the flows in round-robin order as the chain workloads do: at 256 flows the
// table sits in cache, at 16384 most probes miss it.
func BenchmarkTableTouch(b *testing.B) {
	for _, flows := range []int{256, 16384} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			l := mbtest.NewCounterLogic(8)
			ids := make([]packet.FlowID, flows)
			for i, k := range l.Preload(flows) {
				ids[i], _ = k.Canonical().ID()
			}
			ctx := mbox.NewBenchContext()
			l.Lock()
			defer l.Unlock()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := l.Touch(ctx, ids[i%flows]); !ok {
					b.Fatal("preloaded flow missing")
				}
			}
		})
	}
}

// BenchmarkTableMatch is one prefix-constrained get's match, a scan of the
// whole table, over 8192 and 16384 resident flows: at half the table (the
// split a scale-up moves) and at 1/128 of it.
func BenchmarkTableMatch(b *testing.B) {
	for _, flows := range []int{8192, 16384} {
		l := mbtest.NewCounterLogic(8)
		l.Preload(flows)
		hostBits := bits.Len(uint(flows)) - 1 // Preload's sources are 10.0.0.0 + i
		for _, share := range []int{2, 128} {
			m := packet.FieldMatch{SrcPrefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10}), 32-hostBits+bits.Len(uint(share))-1)}
			b.Run(fmt.Sprintf("flows=%d/share=1:%d", flows, share), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					n := 0
					err := l.GetPerflow(state.Supporting, m, func(packet.FlowKey, func(func()) ([]byte, error)) error {
						n++
						return nil
					})
					if err != nil || n != flows/share {
						b.Fatalf("%s matched %d of %d flows (%v), want %d", m, n, flows, err, flows/share)
					}
				}
			})
		}
	}
}

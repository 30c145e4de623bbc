package mbox_test

import (
	"bytes"
	"fmt"
	"net/netip"
	"slices"
	"testing"

	"openmb/internal/mbox"
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

// indexKeys returns every key the table's index holds, sorted, or false if
// the table has no index.
func indexKeys[V any](tbl *mbox.Table[V]) ([]packet.FlowID, bool) {
	tbl.Lock()
	defer tbl.Unlock()
	ix := tbl.IndexForTest()
	if ix == nil {
		return nil, false
	}
	ids, _ := ix.LookupIDs(packet.FieldMatch{SrcPrefix: netip.MustParsePrefix("0.0.0.0/0")})
	packet.SortIDs(ids)
	return ids, true
}

// getKeys runs a get and returns the keys it exported, in export order.
func getKeys(t *testing.T, l mbox.Logic, class state.Class, m packet.FieldMatch) []packet.FlowID {
	t.Helper()
	var got []packet.FlowID
	err := l.GetPerflow(class, m, func(key packet.FlowKey, build func(func()) ([]byte, error)) error {
		if _, err := build(func() {}); err != nil {
			return err
		}
		id, _ := key.ID()
		got = append(got, id)
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", m, err)
	}
	return got
}

// checkIndexedGet: gets answered by the flow index return exactly the keys a
// brute-force MatchEither scan of the table finds, in the same (sorted)
// order. The index does not exist until the first prefix-constrained get,
// and then holds exactly the table's keys.
func checkIndexedGet[V any](t *testing.T, l mbox.Logic, tbl *mbox.Table[V], class state.Class, specs []string) {
	if _, ok := indexKeys(tbl); ok {
		t.Fatal("index built before any prefix-constrained get")
	}
	getKeys(t, l, class, packet.MatchAll)
	if _, ok := indexKeys(tbl); ok {
		t.Fatal("a full-wildcard get built the index")
	}
	all := tableKeys(tbl)
	for _, spec := range specs {
		m, err := packet.ParseFieldMatch(spec)
		if err != nil {
			t.Fatal(err)
		}
		var want []packet.FlowID
		for _, id := range all {
			if m.ForID().MatchEither(id) {
				want = append(want, id)
			}
		}
		if len(want) == 0 {
			t.Fatalf("%s: matches none of %d flows", spec, len(all))
		}
		got := getKeys(t, l, class, m)
		tbl.Lock()
		answered := false
		if ix := tbl.IndexForTest(); ix != nil {
			_, answered = ix.LookupIDs(m)
		}
		tbl.Unlock()
		if !answered {
			t.Fatalf("%s: the index cannot answer this match, so the get did not use it", spec)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: indexed get %v, scan %v", spec, got, want)
		}
	}
	if ix, _ := indexKeys(tbl); !slices.Equal(ix, all) {
		t.Fatalf("index holds %d keys, table %d", len(ix), len(all))
	}
}

func TestIndexedGetEquivalence(t *testing.T) {
	tr := trace.Cloud(trace.CloudConfig{Seed: 70, Flows: 60})
	run := func(l mbox.Logic) {
		rt := mbox.New("a", l, mbox.Options{})
		defer rt.Close()
		for _, p := range tr.Packets {
			rt.HandlePacket(p)
		}
		rt.Drain(10e9)
	}
	t.Run("canonical", func(t *testing.T) {
		m := monitor.New()
		run(m)
		checkIndexedGet(t, m, &m.Table, state.Reporting, []string{
			"[nw_src=10.1.0.0/17]",
			"[nw_src=10.1.0.0/16]",
			"[nw_dst=52.20.0.0/16]", // reverse-direction prefix
			"[nw_src=10.1.0.0/17,nw_proto=tcp]",
		})
	})
	t.Run("source-endpoint", func(t *testing.T) {
		n := nat.New(natIP)
		run(n)
		checkIndexedGet(t, n, &n.Table, state.Supporting, []string{
			"[nw_src=10.1.0.0/17]",
			"[nw_src=10.1.0.0/16]",
			"[nw_src=10.1.0.0/17,nw_proto=tcp]",
		})
	})
}

// checkIndexMaintained: once built, the index follows every way a key enters
// or leaves the table — a delete, a put, a packet that creates a flow — and
// a full wildcard, which the index does not answer, still scans.
func checkIndexMaintained[V any](t *testing.T, l mbox.Logic, tbl *mbox.Table[V], class state.Class) {
	pkt := func(host byte) *packet.Packet {
		return tcp(netip.AddrFrom4([4]byte{10, 0, 0, host}).String(), 1000+uint16(host), "1.1.1.1", 80, packet.FlagACK)
	}
	ctx := mbox.NewBenchContext()
	mbtest.ProcessOne(l, ctx, pkt(1))
	mbtest.ProcessOne(l, ctx, pkt(2))
	check := func(when string, n int) {
		t.Helper()
		all := tableKeys(tbl)
		ix, ok := indexKeys(tbl)
		if !ok || !slices.Equal(ix, all) || len(all) != n {
			t.Fatalf("%s: index %v (built %v), table %v; want %d keys", when, ix, ok, all, n)
		}
	}
	match, _ := packet.ParseFieldMatch("[nw_src=10.0.0.1]")
	if n, err := l.DelPerflow(class, match); err != nil || n != 1 {
		t.Fatalf("del: %d, %v", n, err)
	}
	check("after del", 1)
	// Export the remaining key, delete it, and put it back.
	var chunk state.Chunk
	err := l.GetPerflow(class, packet.MatchAll, func(key packet.FlowKey, build func(func()) ([]byte, error)) error {
		blob, err := build(func() {})
		chunk = state.Chunk{Key: key, Blob: blob}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.DelPerflow(class, packet.MatchAll); err != nil {
		t.Fatal(err)
	}
	check("after a full-wildcard del", 0)
	if err := l.PutPerflow(class, chunk); err != nil {
		t.Fatal(err)
	}
	check("after put", 1)
	mbtest.ProcessOne(l, ctx, pkt(3))
	check("after a new flow", 2)
	if s := l.Stats(packet.MatchAll); s.SupportPerflowChunks+s.ReportPerflowChunks != 2 {
		t.Fatalf("stats over the full table: %+v", s)
	}
}

func TestIndexMaintainedAcrossPutDel(t *testing.T) {
	t.Run("canonical", func(t *testing.T) {
		m := monitor.New()
		checkIndexMaintained(t, m, &m.Table, state.Reporting)
	})
	t.Run("source-endpoint", func(t *testing.T) {
		n := nat.New(natIP)
		checkIndexMaintained(t, n, &n.Table, state.Supporting)
	})
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

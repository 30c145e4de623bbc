package state

import (
	"fmt"
	"net/netip"
	"testing"

	"openmb/internal/packet"
)

func ixKey(a, b string, sp, dp uint16) packet.FlowKey {
	return packet.FlowKey{
		SrcIP: netip.MustParseAddr(a), DstIP: netip.MustParseAddr(b),
		Proto: packet.ProtoTCP, SrcPort: sp, DstPort: dp,
	}
}

func TestFlowIndexLookupMatchesScan(t *testing.T) {
	ix := NewFlowIndex()
	var keys []packet.FlowKey
	for i := 0; i < 1000; i++ {
		k := ixKey(
			fmt.Sprintf("10.%d.%d.%d", i%4, i/256, i%256),
			fmt.Sprintf("192.168.%d.%d", i/256, i%256),
			uint16(1000+i), 80)
		keys = append(keys, k)
		ix.Insert(k)
	}
	if ix.Len() != 1000 {
		t.Fatalf("len: %d", ix.Len())
	}
	for _, expr := range []string{
		"[nw_src=10.1.0.0/16]",
		"[nw_src=10.0.0.0/8,tp_dst=80]",
		"[nw_dst=192.168.1.0/24]",
		"[nw_src=10.2.3.4]",
		"[nw_src=172.16.0.0/12]", // matches nothing
	} {
		m, err := packet.ParseFieldMatch(expr)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := ix.Lookup(m)
		if !ok {
			t.Fatalf("%s: index not applicable", expr)
		}
		want := 0
		for _, k := range keys {
			if m.MatchEither(k) {
				want++
			}
		}
		if len(got) != want {
			t.Errorf("%s: index found %d keys, scan found %d", expr, len(got), want)
		}
		for _, k := range got {
			if !m.MatchEither(k) {
				t.Errorf("%s: index returned non-matching key %v", expr, k)
			}
		}
	}
}

func TestFlowIndexWildcardFallsBack(t *testing.T) {
	ix := NewFlowIndex()
	ix.Insert(ixKey("10.0.0.1", "10.0.0.2", 1, 2))
	if _, ok := ix.Lookup(packet.MatchAll); ok {
		t.Fatal("full wildcard must fall back to a scan")
	}
	m, _ := packet.ParseFieldMatch("[tp_dst=80]")
	if _, ok := ix.Lookup(m); ok {
		t.Fatal("port-only match must fall back to a scan")
	}
}

func TestFlowIndexInsertRemoveChurn(t *testing.T) {
	ix := NewFlowIndex()
	k1 := ixKey("10.0.0.1", "10.0.0.2", 1, 2)
	k2 := ixKey("10.0.0.3", "10.0.0.4", 3, 4)
	ix.Insert(k1)
	ix.Insert(k1) // duplicate insert is a no-op
	ix.Insert(k2)
	if ix.Len() != 2 {
		t.Fatalf("len after dup insert: %d", ix.Len())
	}
	m, _ := packet.ParseFieldMatch("[nw_src=10.0.0.0/24]")
	if got, _ := ix.Lookup(m); len(got) != 2 {
		t.Fatalf("lookup: %v", got)
	}
	id1, _ := k1.ID()
	ix.RemoveID(id1)
	ix.RemoveID(id1) // double remove is a no-op
	if got, _ := ix.Lookup(m); len(got) != 1 || got[0] != k2 {
		t.Fatalf("lookup after remove: %v", got)
	}
	// Interleave: insert after lookup (clean index) must be visible next time.
	ix.Insert(k1)
	if got, _ := ix.Lookup(m); len(got) != 2 {
		t.Fatalf("lookup after reinsert: %v", got)
	}
}

// BenchmarkFlowIndexChurn measures the per-packet cost of maintaining the
// index: the O(1) set insert that replaced the old sorted-slice insert.
func BenchmarkFlowIndexChurn(b *testing.B) {
	ix := NewFlowIndex()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix.Insert(ixKey("10.0.0.1", "10.0.0.2", uint16(i), uint16(i>>16)))
	}
}

// BenchmarkFlowIndexLookup measures a warm indexed get over 8000 resident
// keys with a constant matched subset.
func BenchmarkFlowIndexLookup(b *testing.B) {
	ix := NewFlowIndex()
	for i := 0; i < 8000; i++ {
		ix.Insert(ixKey(fmt.Sprintf("10.%d.%d.%d", i%8, (i/256)%256, i%256),
			"192.168.0.1", uint16(i), 80))
	}
	m, _ := packet.ParseFieldMatch("[nw_src=10.1.0.0/16]")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ix.Lookup(m); !ok {
			b.Fatal("index not applicable")
		}
	}
}

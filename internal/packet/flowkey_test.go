package packet

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
)

// randomKeys returns n seeded flow keys: IPv4 and IPv6 mixed, a zero Addr
// and unknown protocols now and then, and for every third key its reverse
// direction as well.
func randomKeys(rng *rand.Rand, n int) []FlowKey {
	addr := func() netip.Addr {
		switch rng.Intn(8) {
		case 0:
			return netip.Addr{}
		case 1, 2:
			var a [16]byte
			rng.Read(a[:])
			return netip.AddrFrom16(a)
		}
		// A small pool, so comparisons get past the first field.
		return netip.AddrFrom4([4]byte{10, 0, byte(rng.Intn(2)), byte(rng.Intn(4))})
	}
	protos := []uint8{ProtoTCP, ProtoUDP, ProtoICMP, 0, 47, 255}
	keys := make([]FlowKey, 0, n)
	for len(keys) < n {
		k := FlowKey{
			SrcIP: addr(), DstIP: addr(), Proto: protos[rng.Intn(len(protos))],
			SrcPort: uint16(rng.Intn(4)), DstPort: uint16(rng.Intn(65536)),
		}
		keys = append(keys, k)
		if len(keys)%3 == 0 && len(keys) < n {
			keys = append(keys, k.Reverse())
		}
	}
	return keys
}

// TestFlowKeyStringMatchesSprintf: the fmt-free String is the old Sprintf
// form byte for byte, and MarshalText is the same text.
func TestFlowKeyStringMatchesSprintf(t *testing.T) {
	oldName := func(proto uint8) string {
		switch proto {
		case ProtoTCP:
			return "tcp"
		case ProtoUDP:
			return "udp"
		case ProtoICMP:
			return "icmp"
		}
		return fmt.Sprintf("proto%d", proto)
	}
	for _, k := range randomKeys(rand.New(rand.NewSource(14)), 2000) {
		want := fmt.Sprintf("%s:%d>%s:%d/%s", k.SrcIP, k.SrcPort, k.DstIP, k.DstPort, oldName(k.Proto))
		if got := k.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
		if txt, err := k.MarshalText(); err != nil || string(txt) != want {
			t.Fatalf("MarshalText() = %q, %v; want %q", txt, err, want)
		}
	}
}

// TestSortKeysDeterministicTotalOrder: sorting under FlowKey.Compare gives a
// permutation of the input, in order, and the same for every shuffle of the
// input. (Tables sort IDs; TestFlowIDMatchesFlowKey holds FlowID.Compare to
// this order.)
func TestSortKeysDeterministicTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	keys := randomKeys(rng, 500)
	want := slices.Clone(keys)
	SortKeys(want)

	count := func(ks []FlowKey) map[FlowKey]int {
		m := map[FlowKey]int{}
		for _, k := range ks {
			m[k]++
		}
		return m
	}
	in := count(keys)
	for k, n := range count(want) {
		if in[k] != n {
			t.Fatalf("sorted output holds %v %d times, input %d", k, n, in[k])
		}
	}
	for i := 1; i < len(want); i++ {
		a, b := want[i-1], want[i]
		if a.Compare(b) > 0 {
			t.Fatalf("out of order at %d: %v after %v", i, b, a)
		}
		if (a.Compare(b) == 0) != (a == b) || a.Compare(b) != -b.Compare(a) {
			t.Fatalf("Compare is not a total order on %v, %v", a, b)
		}
	}
	for round := 0; round < 20; round++ {
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		got := slices.Clone(keys)
		SortKeys(got)
		if !slices.Equal(got, want) {
			t.Fatalf("shuffle %d sorted to a different order", round)
		}
	}
	SortKeys(nil)
	SortKeys(keys[:1])
}

func SortKeys(keys []FlowKey) { slices.SortFunc(keys, FlowKey.Compare) }

func BenchmarkSortKeys(b *testing.B) {
	b.Run("20k", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		src := make([]FlowID, 20000)
		for i := range src {
			src[i], _ = FlowKey{
				SrcIP:   netip.AddrFrom4([4]byte{10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}),
				SrcPort: uint16(1024 + rng.Intn(64000)),
				DstIP:   netip.AddrFrom4([4]byte{1, 1, 1, 1}), DstPort: 80, Proto: ProtoTCP,
			}.Canonical().ID()
		}
		keys := make([]FlowID, len(src))
		b.ReportAllocs()
		for b.Loop() {
			copy(keys, src)
			SortIDs(keys)
		}
	})
}

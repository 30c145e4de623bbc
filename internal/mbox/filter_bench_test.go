package mbox

// Microbench guard for the filter check's clock hoist: the introspection
// filter check runs per raised event on the packet worker's path, and must
// read the clock once per burst snapshot, never once per *filter* per event
// (64 TTL-bearing filters would be 64 clock calls). Each iteration is the
// first event of a fresh burst — snapshot, clock read, full walk — so a
// clock read creeping back into the loop shows up as a step change in ns/op.

import (
	"fmt"
	"testing"
	"time"

	"openmb/internal/packet"
	"openmb/internal/state"
)

func benchFilterStack(b *testing.B, filters int) {
	rt := &Runtime{
		sharedMoved: map[state.Class]bool{},
		logs:        map[string][]string{},
	}
	expires := time.Now().Add(time.Hour)
	for i := 0; i < filters; i++ {
		rt.filters = append(rt.filters, eventFilter{
			codePrefix: fmt.Sprintf("app%d.", i),
			match:      packet.MatchAll.ForID(),
			enable:     true,
			expires:    expires, // every entry pays the expiry check
		})
	}
	key, _ := packet.FlowKey{SrcPort: 1234, DstPort: 80, Proto: packet.ProtoTCP}.ID()
	var bs burstState
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A code matching no prefix walks the whole stack — the worst case
		// the hoist targets.
		bs.reset()
		if rt.filterAllowsBurst(&bs, "zz.miss", key) {
			b.Fatal("unexpected filter match")
		}
	}
}

func BenchmarkFilterAllowsDeepStack(b *testing.B)    { benchFilterStack(b, 64) }
func BenchmarkFilterAllowsShallowStack(b *testing.B) { benchFilterStack(b, 4) }

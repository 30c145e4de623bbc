package mbox

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"

	"openmb/internal/packet"
)

// testFlowID returns the canonical ID of the i-th synthetic TCP flow.
func testFlowID(i int) packet.FlowID {
	k := packet.FlowKey{
		SrcIP:   netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}),
		DstIP:   netip.AddrFrom4([4]byte{1, 1, 1, 1}),
		Proto:   packet.ProtoTCP,
		SrcPort: uint16(1024 + i%60000),
		DstPort: 80,
	}
	id, _ := k.Canonical().ID()
	return id
}

// homeKeys returns n distinct flow IDs whose home slot in a table of the
// given size is home, so they collide there and, when home is the last
// slot, their run wraps past the end of the slice.
func homeKeys(n, slots, home int) []packet.FlowID {
	var ids []packet.FlowID
	for i := 0; len(ids) < n; i++ {
		if id := testFlowID(i); int(id.Hash())&(slots-1) == home {
			ids = append(ids, id)
		}
	}
	return ids
}

// flowModel runs operations against a flowTable and a Go map side by side.
type flowModel struct {
	t   testing.TB
	ft  flowTable[uint64]
	ref map[packet.FlowID]uint64
}

func newFlowModel(t testing.TB) *flowModel {
	return &flowModel{t: t, ref: map[packet.FlowID]uint64{}}
}

func (m *flowModel) put(id packet.FlowID, v uint64) {
	m.ft.put(id, v)
	m.ref[id] = v
	if m.ft.n != len(m.ref) {
		m.t.Fatalf("put %v: table holds %d entries, reference %d", id, m.ft.n, len(m.ref))
	}
}

func (m *flowModel) remove(id packet.FlowID) {
	want, had := m.ref[id]
	if v, ok := m.ft.remove(id); ok != had || v != want {
		m.t.Fatalf("remove %v: got (%d, %v), reference (%d, %v)", id, v, ok, want, had)
	}
	delete(m.ref, id)
}

func (m *flowModel) get(id packet.FlowID) {
	want, had := m.ref[id]
	if v, ok := m.ft.get(id); ok != had || v != want {
		m.t.Fatalf("get %v: got (%d, %v), reference (%d, %v)", id, v, ok, want, had)
	}
}

// check compares every resident key, the size and the load bound.
func (m *flowModel) check() {
	if m.ft.n != len(m.ref) {
		m.t.Fatalf("table holds %d entries, reference %d", m.ft.n, len(m.ref))
	}
	if len(m.ft.slots)&(len(m.ft.slots)-1) != 0 || m.ft.n*4 > len(m.ft.slots)*3 {
		m.t.Fatalf("%d entries in %d slots", m.ft.n, len(m.ft.slots))
	}
	for id := range m.ref {
		m.get(id)
	}
}

// sweep walks the table with all, removing the visited entry on every other
// step, and checks that each entry resident when the walk began is visited
// exactly once, with its value.
func (m *flowModel) sweep() {
	seen := map[packet.FlowID]bool{}
	step := 0
	for id, v := range m.ft.all() {
		if want, ok := m.ref[id]; !ok || v != want || seen[id] {
			m.t.Fatalf("walk visits %v=%d: reference (%d, %v), seen before %v", id, v, want, ok, seen[id])
		}
		seen[id] = true
		if step++; step%2 == 0 {
			m.remove(id)
		}
	}
	for id := range m.ref {
		if !seen[id] {
			m.t.Fatalf("walk missed %v", id)
		}
	}
	if step != len(seen) {
		m.t.Fatalf("walk took %d steps over %d entries", step, len(seen))
	}
	m.check()
}

// TestFlowTableMatchesMap runs seeded operation sequences against a Go map:
// inserts, overwrites, gets and deletes through at least four doublings;
// keys that collide and whose runs wrap past the end of the slice; and walks
// that remove the visited entry on every other step.
func TestFlowTableMatchesMap(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m := newFlowModel(t)
			universe := 600
			for op := 0; op < 6000; op++ {
				id := testFlowID(rng.Intn(universe))
				switch r := rng.Intn(10); {
				case r < 5:
					m.put(id, rng.Uint64())
				case r < 7:
					m.remove(id)
				default:
					m.get(id)
				}
				if op%500 == 499 {
					m.check()
				}
			}
			m.check()
			if len(m.ft.slots) < flowTableMinSlots<<4 {
				t.Fatalf("seed %d: %d slots, want at least four doublings", seed, len(m.ft.slots))
			}
			m.sweep()
		}
	})
	t.Run("collide-and-wrap", func(t *testing.T) {
		// Fill to just under the first growth with keys homed on the last
		// slot, so the run wraps to slot 0, then delete from every position
		// of the run and walk what is left.
		for del := 0; del < 5; del++ {
			m := newFlowModel(t)
			slots := flowTableMinSlots
			ids := homeKeys(slots*3/4, slots, slots-1)
			for i, id := range ids {
				m.put(id, uint64(i))
			}
			if len(m.ft.slots) != slots {
				t.Fatalf("%d slots after %d inserts, want %d", len(m.ft.slots), len(ids), slots)
			}
			m.put(ids[del], 100) // overwrite in place
			m.remove(ids[del])
			m.check()
			m.put(ids[del], 200) // back at the end of the run
			m.check()
			m.sweep()
			m.sweep()
		}
	})
	t.Run("mixed-runs", func(t *testing.T) {
		// Two interleaved runs: keys homed on the last slot and on slot 1,
		// at growing table sizes, each walked with removal.
		for slots := 16; slots <= 256; slots *= 2 {
			m := newFlowModel(t)
			m.ft.slots = emptySlots[uint64](slots)
			a, b := homeKeys(slots/4, slots, slots-1), homeKeys(slots/4, slots, 1)
			for i := range a {
				m.put(a[i], uint64(i))
				m.put(b[i], uint64(i)<<32)
			}
			if len(m.ft.slots) != slots {
				t.Fatalf("grew to %d slots, want %d", len(m.ft.slots), slots)
			}
			for i := 0; i < len(a); i += 3 {
				m.remove(a[i])
			}
			m.check()
			m.sweep()
			m.sweep()
		}
	})
}

// FuzzFlowTableOps drives a flowTable with byte-coded operations over a small
// pool of keys (many of them colliding) and checks it against a Go map
// operation by operation: two bytes an operation, the first choosing put (and
// its value), remove, get or a walk that removes every other entry, the
// second the key.
func FuzzFlowTableOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 2, 2, 1, 3, 0})
	f.Add(binary.BigEndian.AppendUint64(nil, 0x0001000200030004))
	pool := append(homeKeys(24, flowTableMinSlots, flowTableMinSlots-1), homeKeys(24, 64, 0)...)
	for i := 0; len(pool) < 256; i++ {
		pool = append(pool, testFlowID(1<<20+i))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newFlowModel(t)
		for i := 0; i+1 < len(ops); i += 2 {
			id := pool[ops[i+1]]
			switch ops[i] % 4 {
			case 0:
				m.put(id, uint64(ops[i]))
			case 1:
				m.remove(id)
			case 2:
				m.get(id)
			case 3:
				m.sweep()
			}
		}
		m.check()
	})
}

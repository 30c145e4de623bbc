package packet

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"testing"
)

// testFlowID returns the canonical ID of the i-th synthetic TCP flow.
func testFlowID(i int) FlowID {
	k := FlowKey{
		SrcIP:   netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}),
		DstIP:   netip.AddrFrom4([4]byte{1, 1, 1, 1}),
		Proto:   ProtoTCP,
		SrcPort: uint16(1024 + i%60000),
		DstPort: 80,
	}
	id, _ := k.Canonical().ID()
	return id
}

// tableSeeds are the fixed, non-zero seeds the model test pins: a table
// draws a random seed only when its own is 0, so these keep the colliding
// keys below colliding.
var tableSeeds = []uint64{0x9e3779b97f4a7c15, 0x0123456789abcdef}

// homeKeys returns n distinct flow IDs whose home slot in a table of the
// given size and seed is home, so they collide there and, when home is the
// last slot, their run wraps past the end of the slice.
func homeKeys(seed uint64, n, slots, home int) []FlowID {
	var ids []FlowID
	for i := 0; len(ids) < n; i++ {
		if id := testFlowID(i); int(id.HashSeed(seed))&(slots-1) == home {
			ids = append(ids, id)
		}
	}
	return ids
}

// flowModel runs operations against a FlowTable and a Go map side by side.
type flowModel struct {
	t   testing.TB
	ft  FlowTable[uint64]
	ref map[FlowID]uint64
}

func newFlowModel(t testing.TB, seed uint64) *flowModel {
	return &flowModel{t: t, ft: FlowTable[uint64]{seed: seed}, ref: map[FlowID]uint64{}}
}

func (m *flowModel) put(id FlowID, v uint64) {
	_, had := m.ref[id]
	if added := m.ft.Put(id, v); added == had {
		m.t.Fatalf("put %v: added %v, reference held it %v", id, added, had)
	}
	m.ref[id] = v
	if m.ft.n != len(m.ref) {
		m.t.Fatalf("put %v: table holds %d entries, reference %d", id, m.ft.n, len(m.ref))
	}
}

func (m *flowModel) remove(id FlowID) {
	want, had := m.ref[id]
	if v, ok := m.ft.Remove(id, nil); ok != had || v != want {
		m.t.Fatalf("remove %v: got (%d, %v), reference (%d, %v)", id, v, ok, want, had)
	}
	delete(m.ref, id)
}

// removeIf removes id under a condition, that its value is odd, as the
// router removes a key only if the detaching transaction owns it.
func (m *flowModel) removeIf(id FlowID) {
	want, had := m.ref[id]
	hit := had && want%2 == 1
	if v, got := m.ft.Remove(id, func(v uint64) bool { return v%2 == 1 }); got != hit || hit && v != want {
		m.t.Fatalf("removeIf %v: removed (%d, %v), reference (%d, %v)", id, v, got, want, had)
	}
	if hit {
		delete(m.ref, id)
	}
}

func (m *flowModel) get(id FlowID) {
	want, had := m.ref[id]
	if v, ok := m.ft.Get(id); ok != had || v != want {
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
	seen := map[FlowID]bool{}
	step := 0
	for id, v := range m.ft.All() {
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

// TestFlowTableMatchesMap runs seeded operation sequences against a Go map,
// each under every one of tableSeeds: inserts, overwrites, gets, deletes and
// conditional deletes through at least four doublings; keys that collide and
// whose runs wrap past the end of the slice; and walks that remove the
// visited entry on every other step.
func TestFlowTableMatchesMap(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		for _, ts := range tableSeeds {
			for seed := int64(1); seed <= 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				m := newFlowModel(t, ts)
				universe := 600
				for op := 0; op < 6000; op++ {
					id := testFlowID(rng.Intn(universe))
					switch r := rng.Intn(10); {
					case r < 5:
						m.put(id, rng.Uint64())
					case r < 6:
						m.removeIf(id)
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
					t.Fatalf("seed %d, table seed %#x: %d slots, want at least four doublings", seed, ts, len(m.ft.slots))
				}
				m.sweep()
			}
		}
	})
	t.Run("collide-and-wrap", func(t *testing.T) {
		for _, ts := range tableSeeds {
			// Fill to just under the first growth with keys homed on the last
			// slot, so the run wraps to slot 0, then delete from every position
			// of the run and walk what is left.
			for del := 0; del < 5; del++ {
				m := newFlowModel(t, ts)
				slots := flowTableMinSlots
				ids := homeKeys(ts, slots*3/4, slots, slots-1)
				for i, id := range ids {
					m.put(id, uint64(i))
				}
				if len(m.ft.slots) != slots {
					t.Fatalf("%d slots after %d inserts, want %d", len(m.ft.slots), len(ids), slots)
				}
				if m.ft.slots[slots-1].id != ids[0] || m.ft.slots[0].id != ids[1] {
					t.Fatalf("table seed %#x: the run homed on the last slot does not wrap to slot 0", ts)
				}
				m.put(ids[del], 100) // overwrite in place
				m.remove(ids[del])
				m.check()
				m.put(ids[del], 200) // back at the end of the run
				m.check()
				m.sweep()
				m.sweep()
			}
		}
	})
	t.Run("mixed-runs", func(t *testing.T) {
		for _, ts := range tableSeeds {
			// Two interleaved runs: keys homed on the last slot and on slot 1,
			// at growing table sizes, each walked with removal.
			for slots := 16; slots <= 256; slots *= 2 {
				m := newFlowModel(t, ts)
				m.ft.slots = emptySlots[uint64](slots)
				a, b := homeKeys(ts, slots/4, slots, slots-1), homeKeys(ts, slots/4, slots, 1)
				for i := range a {
					m.put(a[i], uint64(i))
					m.put(b[i], uint64(i)<<32)
				}
				if len(m.ft.slots) != slots {
					t.Fatalf("grew to %d slots, want %d", len(m.ft.slots), slots)
				}
				if m.ft.slots[0].id != a[1] {
					t.Fatalf("table seed %#x: the run homed on the last slot does not wrap to slot 0", ts)
				}
				for i := 0; i < len(a); i += 3 {
					m.remove(a[i])
				}
				m.check()
				m.sweep()
				m.sweep()
			}
		}
	})
}

// TestFlowTableRecycle pins the slot pool: a table keeps its slots while it
// holds entries; emptied and recycled, it gives them back; a table that then
// starts from nothing takes that array as it is, under a fresh seed, and
// works; and an array nobody borrows again is freed by the next collection.
func TestFlowTableRecycle(t *testing.T) {
	var pool SlotPool[uint64]
	var a FlowTable[uint64]
	a.Recycle(&pool)
	for i := 0; i < 1000; i++ {
		a.Put(testFlowID(i), uint64(i))
	}
	a.Recycle(&pool)
	if a.Len() != 1000 || a.slots == nil {
		t.Fatalf("Recycle took the slots of a table holding %d entries", a.Len())
	}
	slots, seed := a.slots, a.seed
	for i := 0; i < 1000; i++ {
		a.Remove(testFlowID(i), nil)
	}
	a.Recycle(&pool)
	if a.slots != nil || a.seed != 0 {
		t.Fatal("an emptied table kept its slots or its seed after Recycle")
	}

	b := FlowTable[uint64]{}
	b.Recycle(&pool)
	m := newFlowModel(t, 0)
	m.ft = b
	m.put(testFlowID(5000), 1)
	if &m.ft.slots[0] != &slots[0] {
		t.Fatal("a table starting from nothing did not take the recycled array")
	}
	if m.ft.seed == 0 || m.ft.seed == seed {
		t.Fatalf("a table took a recycled array under seed %#x (the old one %#x); want a fresh one", m.ft.seed, seed)
	}
	for i := 0; i < 2000; i++ {
		m.put(testFlowID(i), uint64(i))
		if i%3 == 0 {
			m.remove(testFlowID(i / 2))
		}
	}
	m.check()

	slots = nil
	for i := 0; i < 8; i++ {
		var c FlowTable[uint64]
		c.Recycle(&pool)
		c.Put(testFlowID(i), 1)
		c.Remove(testFlowID(i), nil)
		c.Recycle(&pool)
	}
	runtime.GC()
	for _, w := range pool.free {
		if s := w.Value(); s != nil {
			t.Fatalf("a pooled array of %d slots survived a collection nobody borrowed it through", len(*s))
		}
	}
}

// displacement returns how far, in slots, id sits from its home slot in t:
// right after id's insert, the slots that insert probed past.
func displacement[V any](t *FlowTable[V], id FlowID) int {
	i, _ := t.find(id)
	return (i - int(id.HashSeed(t.seed))) & (len(t.slots) - 1)
}

// TestFlowTableFillInTableOrder fills fresh tables in a 20 000-key table's
// slot order, as a get fills the runtime's mark set and a put the
// destination's table, and bounds each insert's displacement from its home
// slot. Under one hash for every table, a table that is still smaller than
// the source homes that order's second half on slots its first half already
// filled, and each insert probes to the end of one long run (148 slots on
// average); with a seed per table the keys scatter, and an insert lands
// about one slot from home.
func TestFlowTableFillInTableOrder(t *testing.T) {
	const keys = 20000
	var src, dst FlowTable[uint64]
	for i := range keys {
		src.Put(testFlowID(i), uint64(i))
	}
	var marks FlowTable[struct{}]
	markSum, dstSum := 0, 0
	for id, v := range src.All() {
		marks.Put(id, struct{}{})
		markSum += displacement(&marks, id)
		dst.Put(id, v)
		dstSum += displacement(&dst, id)
	}
	for id, v := range src.All() {
		if got, ok := dst.Get(id); !ok || got != v {
			t.Fatalf("%v: destination holds (%d, %v), want %d", id, got, ok, v)
		}
	}
	for _, c := range []struct {
		name   string
		n, sum int
	}{{"mark set", marks.Len(), markSum}, {"destination table", dst.Len(), dstSum}} {
		mean := float64(c.sum) / keys
		t.Logf("%s: %d keys, mean displacement at insert %.2f slots", c.name, c.n, mean)
		if c.n != keys || mean > 4 {
			t.Errorf("%s: %d keys at a mean displacement of %.2f slots, want %d at ≤ 4", c.name, c.n, mean, keys)
		}
	}
}

// BenchmarkFlowTableRefill fills a fresh table with 20 000 keys in another
// table's slot order, as a get's export fills the runtime's mark set, and
// in a shuffled order. Under one hash for every table the first order piled
// up; with a seed per table the two read alike. Each reports the mean
// displacement at insert of one more fill beside the time.
func BenchmarkFlowTableRefill(b *testing.B) {
	var src FlowTable[struct{}]
	for i := range 20000 {
		src.Put(testFlowID(i), struct{}{})
	}
	var inOrder []FlowID
	for id := range src.All() {
		inOrder = append(inOrder, id)
	}
	shuffled := slices.Clone(inOrder)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, c := range []struct {
		name string
		ids  []FlowID
	}{{"order=table", inOrder}, {"order=shuffled", shuffled}} {
		b.Run(c.name, func(b *testing.B) {
			for range b.N {
				var t FlowTable[struct{}]
				for _, id := range c.ids {
					t.Put(id, struct{}{})
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.ids)), "ns/key")
			var t FlowTable[struct{}]
			sum := 0
			for _, id := range c.ids {
				t.Put(id, struct{}{})
				sum += displacement(&t, id)
			}
			b.ReportMetric(float64(sum)/float64(len(c.ids)), "displacement/insert")
		})
	}
}

// FuzzFlowTableOps drives a FlowTable with byte-coded operations over a small
// pool of keys (many of them colliding) and checks it against a Go map
// operation by operation. The first eight bytes are the table's seed (made
// non-zero, so the table never draws its own and a failure replays), and
// the colliding keys are picked under it. Then two bytes an operation: the
// first chooses put (and its value), remove (a conditional one when its bit
// 2 is set), get or a walk that removes every other entry, the second the
// key.
func FuzzFlowTableOps(f *testing.F) {
	f.Add(append(binary.BigEndian.AppendUint64(nil, tableSeeds[0]), 0, 1, 0, 2, 0, 3, 1, 2, 2, 1, 3, 0))
	f.Add(binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, tableSeeds[1]), 0x0001000200030004))
	f.Fuzz(func(t *testing.T, in []byte) {
		var seed [8]byte
		ops := in[copy(seed[:], in):]
		ts := binary.BigEndian.Uint64(seed[:]) | 1
		pool := append(homeKeys(ts, 24, flowTableMinSlots, flowTableMinSlots-1), homeKeys(ts, 24, 64, 0)...)
		for i := 0; len(pool) < 256; i++ {
			pool = append(pool, testFlowID(1<<20+i))
		}
		m := newFlowModel(t, ts)
		for i := 0; i+1 < len(ops); i += 2 {
			id := pool[ops[i+1]]
			switch ops[i] % 4 {
			case 0:
				m.put(id, uint64(ops[i]))
			case 1:
				if ops[i]&4 != 0 {
					m.removeIf(id)
				} else {
					m.remove(id)
				}
			case 2:
				m.get(id)
			case 3:
				m.sweep()
			}
		}
		m.check()
	})
}

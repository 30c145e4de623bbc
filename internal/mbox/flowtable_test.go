package mbox

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"openmb/internal/packet"
	"openmb/internal/state"
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

// tableSeeds are the fixed, non-zero seeds the model test pins: a table
// draws a random seed only when its own is 0, so these keep the colliding
// keys below colliding.
var tableSeeds = []uint64{0x9e3779b97f4a7c15, 0x0123456789abcdef}

// homeKeys returns n distinct flow IDs whose home slot in a table of the
// given size and seed is home, so they collide there and, when home is the
// last slot, their run wraps past the end of the slice.
func homeKeys(seed uint64, n, slots, home int) []packet.FlowID {
	var ids []packet.FlowID
	for i := 0; len(ids) < n; i++ {
		if id := testFlowID(i); int(id.HashSeed(seed))&(slots-1) == home {
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

func newFlowModel(t testing.TB, seed uint64) *flowModel {
	return &flowModel{t: t, ft: flowTable[uint64]{seed: seed}, ref: map[packet.FlowID]uint64{}}
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

// TestFlowTableMatchesMap runs seeded operation sequences against a Go map,
// each under every one of tableSeeds: inserts, overwrites, gets and deletes
// through at least four doublings; keys that collide and whose runs wrap past
// the end of the slice; and walks that remove the visited entry on every
// other step.
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

// displacement returns how far, in slots, id sits from its home slot in t:
// right after id's insert, the slots that insert probed past.
func displacement[V any](t *flowTable[V], id packet.FlowID) int {
	i, _ := t.find(id)
	return (i - int(id.HashSeed(t.seed))) & (len(t.slots) - 1)
}

// u64Codec is a Codec for plain uint64 values: eight bytes, the incoming
// value wins.
type u64Codec struct{}

func (u64Codec) Append(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
func (u64Codec) Decode(_ packet.FlowID, b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("blob of %d bytes, want 8", len(b))
	}
	return binary.BigEndian.Uint64(b), nil
}
func (u64Codec) Put(_ packet.FlowID, in, _ uint64, _ bool) (uint64, error) { return in, nil }
func (u64Codec) Drop(packet.FlowID, uint64)                                {}

// TestFlowTableFillInTableOrder fills fresh tables in a 20 000-key table's
// export order, as a get fills the runtime's mark set and a put the
// destination's table, and bounds each insert's displacement from its home
// slot. Under one hash for every table, a table that is still smaller than
// the source homes that order's second half on slots its first half already
// filled, and each insert probes to the end of one long run (148 slots on
// average); with a seed per table the keys scatter, and an insert lands
// about one slot from home.
func TestFlowTableFillInTableOrder(t *testing.T) {
	const keys = 20000
	var src, dst Table[uint64]
	src.Init("fill", state.Supporting, Canonical, u64Codec{})
	dst.Init("fill", state.Supporting, Canonical, u64Codec{})
	for i := range keys {
		src.m.put(testFlowID(i), uint64(i))
	}
	var marks flowTable[struct{}]
	markSum, dstSum := 0, 0
	err := src.GetPerflow(state.Supporting, packet.MatchAll, func(key packet.FlowKey, build func(func()) ([]byte, error)) error {
		id, _ := key.ID()
		blob, err := build(func() {
			marks.put(id, struct{}{})
			markSum += displacement(&marks, id)
		})
		if err != nil {
			return err
		}
		if err := dst.PutPerflow(state.Supporting, state.Chunk{Key: key, Blob: blob}); err != nil {
			return err
		}
		dstSum += displacement(&dst.m, id)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, v := range src.m.all() {
		if got, ok := dst.Get(id); !ok || got != v {
			t.Fatalf("%v: destination holds (%d, %v), want %d", id, got, ok, v)
		}
	}
	for _, c := range []struct {
		name   string
		n, sum int
	}{{"mark set", marks.n, markSum}, {"destination table", dst.Len(), dstSum}} {
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
	var src flowTable[struct{}]
	for i := range 20000 {
		src.put(testFlowID(i), struct{}{})
	}
	var inOrder []packet.FlowID
	for id := range src.all() {
		inOrder = append(inOrder, id)
	}
	shuffled := slices.Clone(inOrder)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, c := range []struct {
		name string
		ids  []packet.FlowID
	}{{"order=table", inOrder}, {"order=shuffled", shuffled}} {
		b.Run(c.name, func(b *testing.B) {
			for range b.N {
				var t flowTable[struct{}]
				for _, id := range c.ids {
					t.put(id, struct{}{})
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.ids)), "ns/key")
			var t flowTable[struct{}]
			sum := 0
			for _, id := range c.ids {
				t.put(id, struct{}{})
				sum += displacement(&t, id)
			}
			b.ReportMetric(float64(sum)/float64(len(c.ids)), "displacement/insert")
		})
	}
}

// FuzzFlowTableOps drives a flowTable with byte-coded operations over a small
// pool of keys (many of them colliding) and checks it against a Go map
// operation by operation. The first eight bytes are the table's seed (made
// non-zero, so the table never draws its own and a failure replays), and
// the colliding keys are picked under it. Then two bytes an operation: the
// first chooses put (and its value), remove, get or a walk that removes
// every other entry, the second the key.
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

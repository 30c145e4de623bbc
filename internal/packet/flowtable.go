package packet

import (
	"iter"
	"math/rand/v2"
	"sync"
	"weak"
)

// flowSlot is one slot of a FlowTable. An empty slot's id is SharedID, which
// no IPv4 flow's key produces, so a slot needs no used flag: with a pointer
// or a uint64 value it is 24 bytes, where a flag would pad it to 32. The
// value comes first so that a zero-size one (the runtime's mark sets) adds no
// trailing padding: such a slot is the 16-byte key alone.
type flowSlot[V any] struct {
	v  V
	id FlowID
}

// FlowTable is the map under mbox.Table, the runtime's mark sets and the
// controller's router: open addressing with linear probing on
// FlowID.HashSeed(seed) over a power-of-two slice of slots. The slice doubles
// when an insert would take it above 3/4 full, and never shrinks (assign the
// zero FlowTable, or Recycle it, to drop it). A delete shifts the later
// entries of its run back into the hole, so there are no tombstones and a
// lookup stops at the first empty slot. A table with seed 0 draws its own
// seed when it first allocates slots: filling a table in another's slot order
// (an export into a mark set, a put at the destination) then scatters instead
// of piling up on one run. SharedID marks an empty slot and cannot be stored.
type FlowTable[V any] struct {
	slots []flowSlot[V]
	n     int
	seed  uint64
	pool  *SlotPool[V]
}

// SlotPool lends the slot arrays of emptied FlowTables of one value type to
// tables that start from nothing again, instead of regrowing from
// flowTableMinSlots; an emptied array is all empty slots already. It holds
// them weakly: one nobody borrows before the next collection is freed, so
// idle arrays never count toward the live heap that sets the next goal.
type SlotPool[V any] struct {
	mu   sync.Mutex
	free []weak.Pointer[[]flowSlot[V]]
}

// Recycle gives an empty table's slots to p, and t takes its slots from p
// (any size, under a fresh seed) whenever it starts from nothing again. A
// table holding entries keeps them. Never call it inside a walk.
func (t *FlowTable[V]) Recycle(p *SlotPool[V]) {
	if t.n > 0 {
		return
	}
	if s := t.slots; s != nil {
		p.mu.Lock()
		p.free = append(p.free, weak.Make(&s))
		p.mu.Unlock()
	}
	*t = FlowTable[V]{pool: p}
}

const flowTableMinSlots = 8

// emptySlots returns n empty slots.
func emptySlots[V any](n int) []flowSlot[V] {
	s := make([]flowSlot[V], n)
	for i := range s {
		s[i].id = SharedID
	}
	return s
}

// find returns the slot holding id, or the empty slot ending id's run, and
// whether id is there. The table must have slots.
func (t *FlowTable[V]) find(id FlowID) (int, bool) {
	mask := len(t.slots) - 1
	for i := int(id.HashSeed(t.seed)) & mask; ; i = (i + 1) & mask {
		switch t.slots[i].id {
		case id:
			return i, true
		case SharedID:
			return i, false
		}
	}
}

// Len returns the number of entries.
func (t *FlowTable[V]) Len() int { return t.n }

// Get returns the value under id.
func (t *FlowTable[V]) Get(id FlowID) (V, bool) {
	if t.n > 0 {
		if i, ok := t.find(id); ok {
			return t.slots[i].v, true
		}
	}
	var zero V
	return zero, false
}

// Slot finds or inserts id in one probe and returns its value to be read and
// written in place (the zero value if id was absent, as it reports), valid
// until the next insert or remove. id must not be SharedID.
func (t *FlowTable[V]) Slot(id FlowID) (*V, bool) {
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	i, ok := t.find(id)
	if !ok {
		t.slots[i].id = id
		t.n++
	}
	return &t.slots[i].v, ok
}

// Put stores v under id, which must not be SharedID, and reports whether it
// added the key.
func (t *FlowTable[V]) Put(id FlowID, v V) bool {
	p, had := t.Slot(id)
	*p = v
	return !had
}

// grow doubles the slice (or takes the first one from the table's pool or
// allocates it, drawing the seed if there is none) and reinserts every entry.
func (t *FlowTable[V]) grow() {
	if t.seed == 0 {
		t.seed = rand.Uint64()
	}
	old := t.slots
	if p := t.pool; old == nil && p != nil {
		p.mu.Lock()
		for ; t.slots == nil && len(p.free) > 0; p.free = p.free[:len(p.free)-1] {
			if s := p.free[len(p.free)-1].Value(); s != nil {
				t.slots = *s
			}
		}
		p.mu.Unlock()
		if t.slots != nil {
			return
		}
	}
	t.slots = emptySlots[V](max(2*len(old), flowTableMinSlots))
	for _, s := range old {
		if s.id != SharedID {
			i, _ := t.find(s.id)
			t.slots[i] = s
		}
	}
}

// Remove deletes the entry under id, if there is one and cond (when not nil)
// holds for its value, in the one probe that finds it, and returns the value
// it deleted.
func (t *FlowTable[V]) Remove(id FlowID, cond func(V) bool) (V, bool) {
	var v V
	if t.n == 0 {
		return v, false
	}
	hole, ok := t.find(id)
	if !ok || cond != nil && !cond(t.slots[hole].v) {
		return v, false
	}
	v = t.slots[hole].v
	// Walk the rest of the run: an entry whose home slot does not lie
	// cyclically in (hole, j] may move back into the hole, which then
	// moves to j.
	mask := len(t.slots) - 1
	for j := (hole + 1) & mask; t.slots[j].id != SharedID; j = (j + 1) & mask {
		home := int(t.slots[j].id.HashSeed(t.seed)) & mask
		if (j-home)&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = flowSlot[V]{id: SharedID}
	t.n--
	return v, true
}

// All iterates over the entries in slot order, starting after an empty slot
// so that no run wraps around the walk. The body may remove the entry it is
// visiting: its run's later entries only shift back, and when one lands in
// the visited slot that slot is visited again. The body may not insert, nor
// remove any other key, nor drop the table's slots.
func (t *FlowTable[V]) All() iter.Seq2[FlowID, V] {
	return func(yield func(FlowID, V) bool) {
		if t.n == 0 {
			return
		}
		mask := len(t.slots) - 1
		start := 0
		for t.slots[start].id != SharedID {
			start++
		}
		for k := 1; k <= mask; {
			s := t.slots[(start+k)&mask]
			if s.id == SharedID {
				k++
				continue
			}
			if !yield(s.id, s.v) {
				return
			}
			if t.slots[(start+k)&mask].id == s.id {
				k++
			}
		}
	}
}

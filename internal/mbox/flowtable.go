package mbox

import (
	"iter"
	"math/rand/v2"

	"openmb/internal/packet"
)

// flowSlot is one slot of a flowTable. An empty slot's id is
// packet.SharedID, which no IPv4 flow's key produces, so a slot needs no used
// flag: with a pointer or a uint64 value it is 24 bytes, where a flag would
// pad it to 32. The value comes first so that a zero-size one (the runtime's
// mark sets) adds no trailing padding: such a slot is the 16-byte key alone.
type flowSlot[V any] struct {
	v  V
	id packet.FlowID
}

// flowTable is the map under Table: open addressing with linear probing on
// FlowID.HashSeed(seed) over a power-of-two slice of slots. The slice doubles
// when an insert would take it above 3/4 full, and never shrinks. A delete
// shifts the later entries of its run back into the hole, so there are no
// tombstones and a lookup stops at the first empty slot. A table with seed 0
// draws its own seed when it first allocates slots: filling a table in
// another's slot order (an export into a mark set, a put at the destination)
// then scatters instead of piling up on one run.
type flowTable[V any] struct {
	slots []flowSlot[V]
	n     int
	seed  uint64
}

const flowTableMinSlots = 8

// emptySlots returns n empty slots.
func emptySlots[V any](n int) []flowSlot[V] {
	s := make([]flowSlot[V], n)
	for i := range s {
		s[i].id = packet.SharedID
	}
	return s
}

// find returns the slot holding id, or the empty slot ending id's run, and
// whether id is there. The table must have slots.
func (t *flowTable[V]) find(id packet.FlowID) (int, bool) {
	mask := len(t.slots) - 1
	for i := int(id.HashSeed(t.seed)) & mask; ; i = (i + 1) & mask {
		switch t.slots[i].id {
		case id:
			return i, true
		case packet.SharedID:
			return i, false
		}
	}
}

// get returns the value under id.
func (t *flowTable[V]) get(id packet.FlowID) (V, bool) {
	if t.n > 0 {
		if i, ok := t.find(id); ok {
			return t.slots[i].v, true
		}
	}
	var zero V
	return zero, false
}

// put stores v under id, which must not be packet.SharedID.
func (t *flowTable[V]) put(id packet.FlowID, v V) {
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	i, ok := t.find(id)
	t.slots[i] = flowSlot[V]{v, id}
	if !ok {
		t.n++
	}
}

// grow doubles the slice (or allocates the first one, drawing the seed if
// there is none) and reinserts every entry.
func (t *flowTable[V]) grow() {
	if t.seed == 0 {
		t.seed = rand.Uint64()
	}
	old := t.slots
	t.slots = emptySlots[V](max(2*len(old), flowTableMinSlots))
	for _, s := range old {
		if s.id != packet.SharedID {
			i, _ := t.find(s.id)
			t.slots[i] = s
		}
	}
}

// remove deletes the entry under id and returns its value, if there was one.
func (t *flowTable[V]) remove(id packet.FlowID) (V, bool) {
	var v V
	if t.n == 0 {
		return v, false
	}
	hole, ok := t.find(id)
	if !ok {
		return v, false
	}
	v = t.slots[hole].v
	// Walk the rest of the run: an entry whose home slot does not lie
	// cyclically in (hole, j] may move back into the hole, which then
	// moves to j.
	mask := len(t.slots) - 1
	for j := (hole + 1) & mask; t.slots[j].id != packet.SharedID; j = (j + 1) & mask {
		home := int(t.slots[j].id.HashSeed(t.seed)) & mask
		if (j-home)&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = flowSlot[V]{id: packet.SharedID}
	t.n--
	return v, true
}

// all iterates over the entries in slot order, starting after an empty slot
// so that no run wraps around the walk. The body may remove the entry it is
// visiting: its run's later entries only shift back, and when one lands in
// the visited slot that slot is visited again. The body may not insert, nor
// remove any other key.
func (t *flowTable[V]) all() iter.Seq2[packet.FlowID, V] {
	return func(yield func(packet.FlowID, V) bool) {
		if t.n == 0 {
			return
		}
		mask := len(t.slots) - 1
		start := 0
		for t.slots[start].id != packet.SharedID {
			start++
		}
		for k := 1; k <= mask; {
			s := t.slots[(start+k)&mask]
			if s.id == packet.SharedID {
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

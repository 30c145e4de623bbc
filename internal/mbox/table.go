package mbox

import (
	"fmt"
	"iter"
	"reflect"
	"sync"

	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/state"
)

// Keying is a per-flow table's keying rule: which entry a flow's ID names,
// and which gets are finer than that entry.
type Keying uint8

const (
	// Canonical keys an entry by the flow's canonical ID, so a packet or a
	// chunk naming either direction lands on the one entry.
	Canonical Keying = iota
	// CanonicalSrcOnly keys like Canonical but refuses a get that
	// constrains the destination (the dummy middlebox's rule).
	CanonicalSrcOnly
	// SrcEndpoint keys an entry by the flow's source endpoint (source
	// address, port and protocol; FlowID.SrcEndpoint). A get that constrains
	// the destination is finer than the key and refused (§4.1.2).
	SrcEndpoint
)

// Codec is what a middlebox tells its Table about one entry's value. The
// table calls Append, Put and Drop with its lock held.
type Codec[V any] interface {
	// Append appends v's wire form to dst. It never appends zero bytes: a
	// zero-length blob is the table's tombstone.
	Append(dst []byte, v V) []byte
	// Decode parses a blob exported under id (the chunk's key as sent,
	// before keying). It must reject, not panic on, any input.
	Decode(id packet.FlowID, b []byte) (V, error)
	// Put returns the value to store under id for an incoming in, given the
	// entry already there (cur, when has). It holds the middlebox's merge
	// rule; an error refuses the chunk and leaves the entry as it was.
	Put(id packet.FlowID, in, cur V, has bool) (V, error)
	// Drop is told that v left the table under id, by a delete or a Remove.
	Drop(id packet.FlowID, v V)
}

// Table is a middlebox's per-flow state: one class of entries keyed by
// packet.FlowID under one keying rule, and the one mutex that serializes
// them — and everything else the middlebox's ProcessBurst touches — against
// the southbound calls. A middlebox embeds it and supplies only its value's
// Codec; the runtime runs the per-flow get, put and delete on it, and its
// Stats serves the middlebox's. See ARCHITECTURE.md, "Per-flow table".
//
// On the packet path the middlebox reaches its entries only through Touch
// and Insert, with the lock held; both report the update to the packet's
// Context before returning, so no update can go unreported to a move. The
// other methods without a lock of their own (Get, Remove, Len, All) also
// need the lock held.
type Table[V any] struct {
	sync.Mutex // the middlebox's one lock
	kind       string
	class      state.Class
	keying     Keying
	codec      Codec[V]
	m          packet.FlowTable[V]
}

// Init readies an empty table of the given class for a middlebox of the
// given kind (named in errors).
func (t *Table[V]) Init(kind string, class state.Class, keying Keying, codec Codec[V]) {
	t.kind, t.class, t.keying, t.codec = kind, class, keying, codec
	t.m = packet.FlowTable[V]{}
}

// Touch returns the entry under id, which must already be keyed, and, if
// there is one, reports the update the caller is about to make to it.
func (t *Table[V]) Touch(ctx *Context, id packet.FlowID) (V, bool) {
	v, ok := t.m.Get(id)
	if ok {
		ctx.Touch(t.class, id)
	}
	return v, ok
}

// Insert stores v under id, which must already be keyed, replacing any entry
// there, and reports the update.
func (t *Table[V]) Insert(ctx *Context, id packet.FlowID, v V) {
	t.m.Put(id, v)
	ctx.Touch(t.class, id)
}

// Get returns the entry under id without reporting an update: for readers.
func (t *Table[V]) Get(id packet.FlowID) (V, bool) { return t.m.Get(id) }

// Remove deletes the entry under id, if any, and tells the codec.
func (t *Table[V]) Remove(id packet.FlowID) {
	v, ok := t.m.Remove(id, nil)
	if ok {
		t.codec.Drop(id, v)
	}
}

// Len returns the number of entries.
func (t *Table[V]) Len() int { return t.m.Len() }

// All iterates over the entries in no particular order. The loop body may
// Remove the entry it is visiting; it may not Insert, nor Remove any other
// key.
func (t *Table[V]) All() iter.Seq2[packet.FlowID, V] { return t.m.All() }

// matchLocked returns the keys of class matching m in either direction, in
// table order, from one scan of the table; none for a class the table does
// not hold. It holds the keying rule for the get, the delete and the stats
// alike: a table not keyed canonically refuses a match that constrains the
// destination, which is finer than its keys (§4.1.2).
func (t *Table[V]) matchLocked(class state.Class, m packet.FieldMatch) ([]packet.FlowID, error) {
	if class != t.class {
		return nil, nil
	}
	if t.keying != Canonical && m.ConstrainsDst() {
		return nil, fmt.Errorf("%s: destination constraints are finer than the per-flow keying granularity", t.kind)
	}
	im := m.ForID()
	ids := make([]packet.FlowID, 0, t.m.Len())
	for id := range t.m.All() {
		if im.MatchEither(id) {
			ids = append(ids, id)
		}
	}
	return ids, nil
}

// appendLocked appends the wire form of the entry under id to dst, if there
// is one: nothing is the tombstone of a key that left the table.
func (t *Table[V]) appendLocked(dst []byte, id packet.FlowID) []byte {
	if v, ok := t.m.Get(id); ok {
		return t.codec.Append(dst, v)
	}
	return dst
}

// PutPerflow installs one chunk exported by a peer instance of the same
// kind: its key is keyed by the table's rule and its value merged in by the
// codec's Put. A key that is not IPv4 is refused; a tombstone installs
// nothing. The runtime opens c.Blob in place in the received frame, so the
// codec copies what it keeps.
func (t *Table[V]) PutPerflow(class state.Class, c state.Chunk) error {
	if class != t.class {
		return fmt.Errorf("%s: no per-flow %v state", t.kind, class)
	}
	if len(c.Blob) == 0 {
		return nil
	}
	id, ok := c.Key.ID()
	if !ok {
		return fmt.Errorf("%s: flow key %s is not IPv4", t.kind, c.Key)
	}
	in, err := t.codec.Decode(id, c.Blob)
	if err != nil {
		return err
	}
	if t.keying == SrcEndpoint {
		id = id.SrcEndpoint()
	} else {
		id, _ = id.Canonical()
	}
	t.Lock()
	defer t.Unlock()
	cur, has := t.m.Get(id)
	v, err := t.codec.Put(id, in, cur, has)
	if err != nil {
		return err
	}
	t.m.Put(id, v)
	return nil
}

// Stats reports the table's matching entries and their wire bytes under its
// class; a match the get refuses counts none. A middlebox's Stats adds its
// shared state.
func (t *Table[V]) Stats(m packet.FieldMatch) sbi.StatsReply {
	t.Lock()
	defer t.Unlock()
	ids, _ := t.matchLocked(t.class, m)
	var buf []byte
	size := 0
	for _, id := range ids {
		buf = t.appendLocked(buf[:0], id)
		size += len(buf)
	}
	var s sbi.StatsReply
	if t.class == state.Reporting {
		s.ReportPerflowChunks, s.ReportPerflowBytes = len(ids), size
	} else {
		s.SupportPerflowChunks, s.SupportPerflowBytes = len(ids), size
	}
	return s
}

// perflow is a Table with its value type erased, promoted by a logic's
// embedded Table: the runtime runs the per-flow get, put and delete on it.
// It takes the lock through the logic (for a get's collection of its keys,
// each key the get exports, and a delete), so a logic wrapping another sees
// those steps and its PutPerflow before the lock is held.
type perflow interface {
	sync.Locker
	matchLocked(class state.Class, m packet.FieldMatch) ([]packet.FlowID, error)
	appendLocked(dst []byte, id packet.FlowID) []byte
	PutPerflow(class state.Class, c state.Chunk) error
	Remove(id packet.FlowID)
}

// perflowOf returns logic's embedded Table. A wrapper that embeds the Logic
// interface hides the inner logic's table from its method set, so the inner
// logic's is returned. A logic without one (the RE boxes) gets an empty
// table of no class: a get or a delete there finds no keys, so ends with
// Count 0, and a put is refused.
func perflowOf(logic Logic) perflow {
	if t, ok := logic.(perflow); ok {
		return t
	}
	if v := reflect.Indirect(reflect.ValueOf(logic)); v.Kind() == reflect.Struct {
		for i := range v.NumField() {
			if f := v.Type().Field(i); f.Anonymous && f.Type == reflect.TypeFor[Logic]() && !v.Field(i).IsNil() {
				return perflowOf(v.Field(i).Interface().(Logic))
			}
		}
	}
	return &Table[struct{}]{kind: logic.Kind()}
}

// exportPerflow is the per-flow get (§4.2.1): the keys of class matching m,
// collected under the table's lock, then per key the lock, the mark, the
// entry's wire form, the unlock, and only then emit, which may wait for
// credit with no lock held. Packets Touch under the same lock, so an update
// before the snapshot is in the blob and one after it raises a reprocess
// event: state moves exactly once, atomicity (ii) and (iii). A key that left
// the table in between is still marked and exported, as a zero-length blob
// (a tombstone): it still registers at the destination, and a packet that
// re-creates the flow here replays there. The blob is valid until emit
// returns.
func exportPerflow(t perflow, class state.Class, m packet.FieldMatch, mark func(packet.FlowID), emit func(id packet.FlowID, blob []byte) error) error {
	t.Lock()
	ids, err := t.matchLocked(class, m)
	t.Unlock()
	if err != nil {
		return err
	}
	var buf []byte
	for _, id := range ids {
		t.Lock()
		mark(id)
		buf = t.appendLocked(buf[:0], id)
		t.Unlock()
		if err := emit(id, buf); err != nil {
			return err
		}
	}
	return nil
}

// delPerflow removes the entries of class matching m with no side effect but
// the codec's Drop (the state has moved, not terminated) and counts them.
func delPerflow(t perflow, class state.Class, m packet.FieldMatch) (int, error) {
	t.Lock()
	defer t.Unlock()
	ids, err := t.matchLocked(class, m)
	if err != nil {
		return 0, err
	}
	for _, id := range ids {
		t.Remove(id)
	}
	return len(ids), nil
}

// ExportPerflow runs the per-flow get on logic's table outside a runtime,
// marking nothing.
func ExportPerflow(logic Logic, class state.Class, m packet.FieldMatch, emit func(id packet.FlowID, blob []byte) error) error {
	return exportPerflow(perflowOf(logic), class, m, func(packet.FlowID) {}, emit)
}

// PutPerflow installs one chunk into logic's table outside a runtime.
func PutPerflow(logic Logic, class state.Class, c state.Chunk) error {
	return perflowOf(logic).PutPerflow(class, c)
}

// DelPerflow runs the per-flow delete on logic's table outside a runtime.
func DelPerflow(logic Logic, class state.Class, m packet.FieldMatch) (int, error) {
	return delPerflow(perflowOf(logic), class, m)
}

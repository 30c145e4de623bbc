package mbox

import (
	"bytes"
	"fmt"
	"iter"
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
// the southbound calls. It implements GetPerflow, PutPerflow, DelPerflow and
// Stats of Logic once; a middlebox embeds it, so they are promoted, and
// supplies only its value's Codec. See ARCHITECTURE.md, "Per-flow table".
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
	m          flowTable[V]
}

// Init readies an empty table of the given class for a middlebox of the
// given kind (named in errors).
func (t *Table[V]) Init(kind string, class state.Class, keying Keying, codec Codec[V]) {
	t.kind, t.class, t.keying, t.codec = kind, class, keying, codec
	t.m = flowTable[V]{}
}

// Touch returns the entry under id, which must already be keyed, and, if
// there is one, reports the update the caller is about to make to it.
func (t *Table[V]) Touch(ctx *Context, id packet.FlowID) (V, bool) {
	v, ok := t.m.get(id)
	if ok {
		ctx.Touch(t.class, id)
	}
	return v, ok
}

// Insert stores v under id, which must already be keyed, replacing any entry
// there, and reports the update.
func (t *Table[V]) Insert(ctx *Context, id packet.FlowID, v V) {
	t.m.put(id, v)
	ctx.Touch(t.class, id)
}

// Get returns the entry under id without reporting an update: for readers.
func (t *Table[V]) Get(id packet.FlowID) (V, bool) { return t.m.get(id) }

// Remove deletes the entry under id, if any, and tells the codec.
func (t *Table[V]) Remove(id packet.FlowID) {
	v, ok := t.m.remove(id)
	if ok {
		t.codec.Drop(id, v)
	}
}

// Len returns the number of entries.
func (t *Table[V]) Len() int { return t.m.n }

// All iterates over the entries in no particular order. The loop body may
// Remove the entry it is visiting; it may not Insert, nor Remove any other
// key.
func (t *Table[V]) All() iter.Seq2[packet.FlowID, V] { return t.m.all() }

// matchLocked returns the keys matching m in either direction, in table
// order, from one scan of the table. It holds the keying rule for the get,
// the delete and the stats alike: a table not keyed canonically refuses a
// match that constrains the destination, which is finer than its keys.
func (t *Table[V]) matchLocked(m packet.FieldMatch) ([]packet.FlowID, error) {
	if t.keying != Canonical && m.ConstrainsDst() {
		return nil, fmt.Errorf("%s: destination constraints are finer than the per-flow keying granularity", t.kind)
	}
	im := m.ForID()
	ids := make([]packet.FlowID, 0, t.m.n)
	for id := range t.m.all() {
		if im.MatchEither(id) {
			ids = append(ids, id)
		}
	}
	return ids, nil
}

// GetPerflow implements Logic. Keys are collected under the lock, in table
// order, then each chunk is marked and serialized under its own short hold
// of it. A key that left the table in between exports a tombstone, a
// zero-length blob: it is still marked, so its chunk still registers it at
// the destination, and a packet that re-creates the flow here replays there;
// the put installs nothing for it.
func (t *Table[V]) GetPerflow(class state.Class, m packet.FieldMatch, emit func(key packet.FlowKey, build func(mark func()) ([]byte, error)) error) error {
	if class != t.class {
		return nil
	}
	t.Lock()
	ids, err := t.matchLocked(m)
	t.Unlock()
	if err != nil {
		return err
	}
	var buf []byte // the codec appends here; each blob is one exact copy
	for _, id := range ids {
		err = emit(id.Key(), func(mark func()) ([]byte, error) {
			t.Lock()
			defer t.Unlock()
			mark()
			v, ok := t.m.get(id)
			if !ok {
				return nil, nil
			}
			buf = t.codec.Append(buf[:0], v)
			return bytes.Clone(buf), nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// PutPerflow implements Logic: the chunk's key is keyed by the table's rule
// and its value merged in by the codec's Put. A tombstone installs nothing.
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
	cur, has := t.m.get(id)
	v, err := t.codec.Put(id, in, cur, has)
	if err != nil {
		return err
	}
	t.m.put(id, v)
	return nil
}

// DelPerflow implements Logic: the matching entries go without side effects
// beyond the codec's Drop. It refuses the matches GetPerflow refuses.
func (t *Table[V]) DelPerflow(class state.Class, m packet.FieldMatch) (int, error) {
	if class != t.class {
		return 0, nil
	}
	t.Lock()
	defer t.Unlock()
	ids, err := t.matchLocked(m)
	if err != nil {
		return 0, err
	}
	for _, id := range ids {
		t.Remove(id)
	}
	return len(ids), nil
}

// Stats implements Logic for the table's class: the matching entries and
// their wire bytes. A match GetPerflow refuses counts none. A middlebox with
// shared state adds its own fields.
func (t *Table[V]) Stats(m packet.FieldMatch) sbi.StatsReply {
	t.Lock()
	defer t.Unlock()
	ids, _ := t.matchLocked(m)
	var buf []byte
	size := 0
	for _, id := range ids {
		v, _ := t.m.get(id)
		buf = t.codec.Append(buf[:0], v)
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

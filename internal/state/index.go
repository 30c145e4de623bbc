package state

import (
	"net/netip"
	"sort"

	"openmb/internal/packet"
)

// FlowIndex is a flow-keyed index over resident per-flow state, the
// wildcard-match structure footnote 6 of the paper suggests: gets whose match
// constrains an address prefix binary-search the covered key ranges instead
// of scanning the whole table, making a get O(matched + log resident)
// instead of O(resident).
//
// Inserts and removes are O(1): keys land in a hash set and the sorted
// views are rebuilt lazily on the next Lookup. Per-packet table churn (the
// hot path) therefore costs one map write; the O(n log n) sort is paid at
// most once per get, and not at all while no gets arrive. Because a request
// may name either direction of a flow, the index keeps one ordering by
// source address and one by destination; candidates from the covered ranges
// are filtered exactly with MatchEither.
//
// FlowIndex is not safe for concurrent use; callers guard it with the same
// lock that serializes their state table (middlebox logic locks).
type FlowIndex struct {
	ids map[packet.FlowID]struct{}
	// bySrc holds the IDs and byDst their reverses, both sorted by
	// FlowID.Compare: (source, destination, proto) order for one,
	// (destination, source, proto) for the other.
	bySrc, byDst []packet.FlowID
	dirty        bool
}

// NewFlowIndex returns an empty index.
func NewFlowIndex() *FlowIndex {
	return &FlowIndex{ids: map[packet.FlowID]struct{}{}}
}

// Insert adds a key to the index; InsertID is the same on the table form.
// O(1); the sorted views refresh on the next Lookup. A key with a non-IPv4
// address names no state a middlebox can hold and is ignored.
func (ix *FlowIndex) Insert(k packet.FlowKey) {
	if id, ok := k.ID(); ok {
		ix.InsertID(id)
	}
}

func (ix *FlowIndex) InsertID(id packet.FlowID) {
	if _, ok := ix.ids[id]; ok {
		return
	}
	ix.ids[id] = struct{}{}
	ix.dirty = true
}

// RemoveID deletes a key from the index. O(1).
func (ix *FlowIndex) RemoveID(id packet.FlowID) {
	if _, ok := ix.ids[id]; !ok {
		return
	}
	delete(ix.ids, id)
	ix.dirty = true
}

// Len returns the number of indexed keys.
func (ix *FlowIndex) Len() int { return len(ix.ids) }

// rebuild refreshes the sorted views from the key set.
func (ix *FlowIndex) rebuild() {
	ix.bySrc, ix.byDst = ix.bySrc[:0], ix.byDst[:0]
	for id := range ix.ids {
		ix.bySrc = append(ix.bySrc, id)
		ix.byDst = append(ix.byDst, id.Reverse())
	}
	packet.SortIDs(ix.bySrc)
	packet.SortIDs(ix.byDst)
	ix.dirty = false
}

// LookupIDs returns the keys matching m (in either direction) and whether
// the index was applicable. A match with no address constraint returns
// (nil, false): every key would be a candidate, so a table scan is optimal
// and the caller should fall back to it. Lookup is the same, expanded to
// FlowKeys.
func (ix *FlowIndex) LookupIDs(m packet.FieldMatch) ([]packet.FlowID, bool) {
	var prefixes []netip.Prefix
	if m.SrcPrefix.IsValid() {
		prefixes = append(prefixes, m.SrcPrefix)
	}
	if m.DstPrefix.IsValid() {
		prefixes = append(prefixes, m.DstPrefix)
	}
	if len(prefixes) == 0 {
		return nil, false
	}
	if ix.dirty {
		ix.rebuild()
	}
	im := m.ForID()
	seen := map[packet.FlowID]bool{}
	var out []packet.FlowID
	add := func(id packet.FlowID) {
		if !seen[id] && im.MatchEither(id) {
			seen[id] = true
			out = append(out, id)
		}
	}
	for _, p := range prefixes {
		// The lowest ID whose source address is inside p; a non-IPv4 prefix
		// covers no indexed key.
		lo, ok := packet.FlowKey{SrcIP: p.Masked().Addr()}.ID()
		if !ok {
			continue
		}
		covers := packet.FieldMatch{SrcPrefix: p}.ForID()
		start := sort.Search(len(ix.bySrc), func(i int) bool { return ix.bySrc[i].Compare(lo) >= 0 })
		for i := start; i < len(ix.bySrc) && covers.Match(ix.bySrc[i]); i++ {
			add(ix.bySrc[i])
		}
		start = sort.Search(len(ix.byDst), func(i int) bool { return ix.byDst[i].Compare(lo) >= 0 })
		for i := start; i < len(ix.byDst) && covers.Match(ix.byDst[i]); i++ {
			add(ix.byDst[i].Reverse())
		}
	}
	return out, true
}

func (ix *FlowIndex) Lookup(m packet.FieldMatch) ([]packet.FlowKey, bool) {
	ids, ok := ix.LookupIDs(m)
	if !ok {
		return nil, false
	}
	keys := make([]packet.FlowKey, len(ids))
	for i, id := range ids {
		keys[i] = id.Key()
	}
	return keys, true
}

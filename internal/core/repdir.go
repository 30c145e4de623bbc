package core

import (
	"sort"
	"sync"

	"openmb/internal/sbi"
)

// repDirectory is the cross-node replicated middlebox directory: every
// cluster node holds a full copy of name → owning-node records, so lookups
// are always local (and therefore stale-but-safe under partition — a
// partitioned node keeps answering from its last synchronized view). Writes
// propagate as versioned sbi.OpDirUpdate peer ops; the quorum discipline
// that makes a write durable lives in Controller.commitOwnership, not here.
//
// The conflict rule is a deterministic last-writer-wins merge: the entry
// with the higher version wins, and equal versions break toward the
// lexicographically greater node name. Two nodes that each committed a
// version-k entry during a partition therefore converge to the same record
// on heal, whichever direction the updates replay in.
type repDirectory struct {
	mu      sync.Mutex
	entries map[string]sbi.DirEntry
}

func newRepDirectory() *repDirectory {
	return &repDirectory{entries: map[string]sbi.DirEntry{}}
}

// lookup answers which node owns the middlebox, from the local copy.
func (d *repDirectory) lookup(name string) (string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[name]
	return e.Node, ok
}

// version reports the current version of the name's record (0 if absent).
func (d *repDirectory) version(name string) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.entries[name].Version
}

// next renders the entry a local ownership commit proposes: the current
// version plus one, owned by node. It does NOT apply the entry — a commit
// only becomes visible once its quorum is in (Controller.commitOwnership calls
// apply after counting acks), so a refused commit leaves the stale view
// untouched.
func (d *repDirectory) next(name, node string) sbi.DirEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	return sbi.DirEntry{Name: name, Node: node, Version: d.entries[name].Version + 1}
}

// apply merges one entry under the conflict rule and reports whether the
// local copy changed.
func (d *repDirectory) apply(e sbi.DirEntry) bool {
	if e.Name == "" {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	cur, ok := d.entries[e.Name]
	if ok && !wins(e, cur) {
		return false
	}
	d.entries[e.Name] = e
	return true
}

// wins reports whether candidate beats incumbent under the conflict rule.
func wins(candidate, incumbent sbi.DirEntry) bool {
	if candidate.Version != incumbent.Version {
		return candidate.Version > incumbent.Version
	}
	return candidate.Node > incumbent.Node
}

// snapshot returns every entry, sorted by name so syncs and tests are
// deterministic.
func (d *repDirectory) snapshot() []sbi.DirEntry {
	d.mu.Lock()
	out := make([]sbi.DirEntry, 0, len(d.entries))
	for _, e := range d.entries {
		out = append(out, e)
	}
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

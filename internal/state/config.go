package state

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ConfigTree is the hierarchical key/value organization of configuration
// state (§4.1.1): each key is associated with either an unordered set of
// sub-keys or an ordered list of values. Keys are slash-separated paths,
// e.g. "rules/http/0" or "NumCaches". The exact hierarchy, key names, and
// value syntax are unique to each middlebox; the tree only provides the
// uniform get/set/del interface.
//
// A ConfigTree is safe for concurrent use. Middlebox logic reads it on the
// packet path while the controller writes it over the southbound API.
type ConfigTree struct {
	mu   sync.RWMutex
	root *configNode
	// version increments on every successful mutation so middleboxes can
	// cheaply detect configuration changes between packets.
	version uint64
	// watchers are invoked (outside the lock) after each successful Set
	// or Del with the affected path.
	watchers []func(path string)
}

type configNode struct {
	children map[string]*configNode
	values   []string // non-nil only at leaves
	isLeaf   bool
}

// NewConfigTree returns an empty tree.
func NewConfigTree() *ConfigTree {
	return &ConfigTree{root: &configNode{children: map[string]*configNode{}}}
}

// ErrNoSuchKey is returned by Get and Del for absent paths.
var ErrNoSuchKey = errors.New("state: no such configuration key")

// ErrKeyIsInterior is returned by Set when the path already names an
// interior node (a key with sub-keys cannot also hold values).
var ErrKeyIsInterior = errors.New("state: key has sub-keys, cannot hold values")

func splitPath(path string) []string {
	path = strings.Trim(path, "/")
	if path == "" || path == "*" {
		return nil
	}
	return strings.Split(path, "/")
}

// Set stores the ordered value list at path, creating intermediate keys.
func (t *ConfigTree) Set(path string, values []string) error {
	parts := splitPath(path)
	if parts == nil {
		return fmt.Errorf("state: cannot set values at the root")
	}
	t.mu.Lock()
	n := t.root
	for i, part := range parts {
		child, ok := n.children[part]
		if !ok {
			child = &configNode{children: map[string]*configNode{}}
			n.children[part] = child
		}
		if i == len(parts)-1 {
			if len(child.children) > 0 {
				t.mu.Unlock()
				return ErrKeyIsInterior
			}
			child.values = append([]string(nil), values...)
			child.isLeaf = true
		} else if child.isLeaf {
			t.mu.Unlock()
			return fmt.Errorf("state: %q is a value key, cannot have sub-keys", strings.Join(parts[:i+1], "/"))
		}
		n = child
	}
	t.version++
	watchers := append([]func(string){}, t.watchers...)
	t.mu.Unlock()
	for _, w := range watchers {
		w(path)
	}
	return nil
}

// Get returns the ordered values at path. Path "*" (or "") returns an
// error; use Export for whole-tree reads.
func (t *ConfigTree) Get(path string) ([]string, error) {
	parts := splitPath(path)
	if parts == nil {
		return nil, fmt.Errorf("state: use Export for wildcard reads")
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.root
	for _, part := range parts {
		child, ok := n.children[part]
		if !ok {
			return nil, ErrNoSuchKey
		}
		n = child
	}
	if !n.isLeaf {
		return nil, ErrNoSuchKey
	}
	return append([]string(nil), n.values...), nil
}

// Del removes the subtree at path.
func (t *ConfigTree) Del(path string) error {
	parts := splitPath(path)
	if parts == nil {
		t.mu.Lock()
		t.root = &configNode{children: map[string]*configNode{}}
		t.version++
		watchers := append([]func(string){}, t.watchers...)
		t.mu.Unlock()
		for _, w := range watchers {
			w(path)
		}
		return nil
	}
	t.mu.Lock()
	n := t.root
	for _, part := range parts[:len(parts)-1] {
		child, ok := n.children[part]
		if !ok {
			t.mu.Unlock()
			return ErrNoSuchKey
		}
		n = child
	}
	last := parts[len(parts)-1]
	if _, ok := n.children[last]; !ok {
		t.mu.Unlock()
		return ErrNoSuchKey
	}
	delete(n.children, last)
	t.version++
	watchers := append([]func(string){}, t.watchers...)
	t.mu.Unlock()
	for _, w := range watchers {
		w(path)
	}
	return nil
}

// Watch registers fn to run after every successful mutation. Watchers must
// not call back into the tree's mutating methods.
func (t *ConfigTree) Watch(fn func(path string)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.watchers = append(t.watchers, fn)
}

// Entry is one leaf of a configuration tree in exported form.
type Entry struct {
	Path   string   `json:"path"`
	Values []string `json:"values"`
}

// Export returns all leaves under path ("" or "*" for the whole tree),
// sorted by path. This implements getConfig with a wildcard or prefix key:
// readConfig(MB, "*") in the paper's control applications.
func (t *ConfigTree) Export(path string) ([]Entry, error) {
	parts := splitPath(path)
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.root
	for _, part := range parts {
		child, ok := n.children[part]
		if !ok {
			return nil, ErrNoSuchKey
		}
		n = child
	}
	var out []Entry
	var walk func(prefix string, n *configNode)
	walk = func(prefix string, n *configNode) {
		if n.isLeaf {
			out = append(out, Entry{Path: prefix, Values: append([]string(nil), n.values...)})
			return
		}
		for name, child := range n.children {
			p := name
			if prefix != "" {
				p = prefix + "/" + name
			}
			walk(p, child)
		}
	}
	walk(strings.Join(parts, "/"), n)
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// Import sets every entry, implementing writeConfig(MB, "*", values): the
// clone-configuration step of the control applications.
func (t *ConfigTree) Import(entries []Entry) error {
	for _, e := range entries {
		if err := t.Set(e.Path, e.Values); err != nil {
			return fmt.Errorf("state: import %q: %w", e.Path, err)
		}
	}
	return nil
}

// Equal reports whether two trees export identical leaves. Used by tests
// and the correctness experiments to verify configuration cloning.
func (t *ConfigTree) Equal(o *ConfigTree) bool {
	a, err1 := t.Export("")
	b, err2 := o.Export("")
	if err1 != nil || err2 != nil || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Path != b[i].Path || len(a[i].Values) != len(b[i].Values) {
			return false
		}
		for j := range a[i].Values {
			if a[i].Values[j] != b[i].Values[j] {
				return false
			}
		}
	}
	return true
}
